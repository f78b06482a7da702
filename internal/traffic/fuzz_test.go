package traffic

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzTraceReplay feeds arbitrary bytes to NewTraceSource and steps the
// source as both engine paths do, for 48 cycles over 70 nodes (two shards,
// the second shorter than a word): the batched FillCycle per shard, with a
// changing set of full injection queues, and the scalar Wants/Take per
// node. Neither may panic; every injection reported must come from the
// shard asked and go to a valid node, and no cycle may report a negative
// blocked count. The seed corpus (testdata/fuzz) holds a valid trace, one
// cut off mid-line, one with an out-of-order cycle, one naming a node past
// the network, an empty file, and a blocked count past int64 (which read
// as a negative count before parseInt refused it).
func FuzzTraceReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const nodes = 70
		batch := NewTraceSource(bytes.NewReader(data), nodes)
		scalar := NewTraceSource(bytes.NewReader(data), nodes)
		full := make([]uint64, (nodes+63)/64)
		out := make([]core.PendingInject, nodes)
		for cycle := int64(0); cycle < 48; cycle++ {
			for u := 0; u < nodes; u++ {
				// A full injection queue at a third of the nodes, moving
				// each cycle, so the divergence path runs too.
				if (int64(u)+cycle)%3 == 0 {
					full[u>>6] |= 1 << (uint(u) & 63)
				} else {
					full[u>>6] &^= 1 << (uint(u) & 63)
				}
			}
			for _, sh := range [][2]int32{{0, 64}, {64, nodes}} {
				n, blocked := batch.FillCycle(cycle, sh[0], sh[1], full, out)
				if n < 0 || n > int(sh[1]-sh[0]) || blocked < 0 {
					t.Fatalf("cycle %d shard %v: %d injections, %d blocked", cycle, sh, n, blocked)
				}
				for _, p := range out[:n] {
					if p.Node < sh[0] || p.Node >= sh[1] || p.Dst < 0 || p.Dst >= nodes {
						t.Fatalf("cycle %d shard %v: injection %+v", cycle, sh, p)
					}
				}
			}
			for u := int32(0); u < nodes; u++ {
				if scalar.Exhausted(u) || !scalar.Wants(u, cycle) || full[u>>6]>>(uint(u)&63)&1 != 0 {
					continue // a full injection queue fails the attempt before Take
				}
				if d := scalar.Take(u, cycle); d < 0 || d >= nodes {
					t.Fatalf("cycle %d: node %d takes destination %d", cycle, u, d)
				}
			}
		}
	})
}
