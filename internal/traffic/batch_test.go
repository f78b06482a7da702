package traffic

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// TestStaticFillParity holds StaticSource.FillCycle to the scalar
// Wants-then-Take walk it replaces: the same injections in the same order
// with the same destinations, and the same blocked count, every cycle until
// both sources drain. The networks span several bitmap words and end inside
// one; the shards are 64-aligned, as the engines cut them; a random half of
// the injection queues is occupied each cycle, so nodes drain at different
// times and allotments run out in the middle of a word.
func TestStaticFillParity(t *testing.T) {
	for _, c := range []struct {
		nodes int
		cuts  []int32 // shard boundaries inside the network
	}{
		{70, nil}, {70, []int32{64}},
		{200, nil}, {200, []int32{64}}, {200, []int32{128}}, {200, []int32{64, 128, 192}},
	} {
		var shards [][2]int32
		lo := int32(0)
		for _, hi := range append(c.cuts, int32(c.nodes)) {
			shards = append(shards, [2]int32{lo, hi})
			lo = hi
		}
		for _, perNode := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("nodes%d/perNode%d/shards%v", c.nodes, perNode, shards), func(t *testing.T) {
				staticFillParity(t, c.nodes, perNode, shards)
			})
		}
	}
}

func staticFillParity(t *testing.T, nodes, perNode int, shards [][2]int32) {
	scalar := NewStaticSource(Random{Nodes: nodes}, nodes, perNode, 5)
	batch := NewStaticSource(Random{Nodes: nodes}, nodes, perNode, 5)
	occ := xrand.New(11, 0)
	full := make([]uint64, (nodes+63)/64)
	out := make([]core.PendingInject, nodes)
	midWord := false
	for cycle := int64(0); scalar.TotalRemaining() > 0 || cycle == 0; cycle++ {
		if cycle > 100 {
			t.Fatalf("not drained after 100 cycles: %d packets left", scalar.TotalRemaining())
		}
		for wi := range full {
			full[wi] = occ.Next()
		}
		var want []core.PendingInject
		wantBlocked := 0
		for u := int32(0); u < int32(nodes); u++ {
			if !scalar.Wants(u, cycle) {
				continue
			}
			if full[u>>6]>>(uint(u)&63)&1 != 0 {
				wantBlocked++
				continue
			}
			want = append(want, core.PendingInject{Node: u, Dst: scalar.Take(u, cycle)})
		}
		var got []core.PendingInject
		gotBlocked := 0
		for _, sh := range shards {
			n, blocked := batch.FillCycle(cycle, sh[0], sh[1], full, out)
			for _, in := range out[:n] {
				if in.Node < sh[0] || in.Node >= sh[1] {
					t.Fatalf("cycle %d: shard %v injected at node %d", cycle, sh, in.Node)
				}
			}
			got = append(got, out[:n]...)
			gotBlocked += blocked
		}
		if !slices.Equal(got, want) || gotBlocked != wantBlocked {
			t.Fatalf("cycle %d: FillCycle injected %v, %d blocked; Wants/Take %v, %d blocked", cycle, got, gotBlocked, want, wantBlocked)
		}
		for u := int32(0); u < int32(nodes); u++ {
			if batch.Exhausted(u) != scalar.Exhausted(u) || batch.Wants(u, cycle) != scalar.Wants(u, cycle) {
				t.Fatalf("cycle %d: node %d: exhausted %v, want %v", cycle, u, batch.Exhausted(u), scalar.Exhausted(u))
			}
			midWord = midWord || batch.Exhausted(u) && !batch.Exhausted(u^1)
		}
	}
	if perNode > 0 && !midWord {
		t.Error("no word ever held both a drained node and one with packets left")
	}
}
