package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/traffic"
)

// kernelRefs returns, per shard table, the reference held by every occupied
// central-queue and injection-queue slot. A queue entry's record must carry
// the queue's class and an injection-queue record its node as source, so a
// reference into the wrong table shows up here.
func kernelRefs(t *testing.T, k *kernel, cycle int64) [][]int32 {
	t.Helper()
	held := make([][]int32, len(k.tabs))
	for qi, n := range k.qlen {
		u := qi / k.classes
		w := k.owner[u]
		for i := int32(0); i < n; i++ {
			r := k.qref[k.qSlot(qi, i)]
			if int(r) < len(k.tabs[w].pkts) && int(k.tabs[w].pkts[r].Class) != qi%k.classes {
				t.Fatalf("cycle %d: queue %d holds ref %d whose record is of class %d", cycle, qi, r, k.tabs[w].pkts[r].Class)
			}
			held[w] = append(held[w], r)
		}
	}
	for u, r := range k.injRef {
		if k.injFull[u>>6]>>(uint(u)&63)&1 == 0 {
			continue
		}
		w := k.owner[u]
		if int(r) < len(k.tabs[w].pkts) && k.tabs[w].pkts[r].Src != int32(u) {
			t.Fatalf("cycle %d: node %d's injection queue holds ref %d of a packet from %d", cycle, u, r, k.tabs[w].pkts[r].Src)
		}
		held[w] = append(held[w], r)
	}
	return held
}

// engineRefs adds the occupied output and input buffers to kernelRefs. The
// fold phase empties every mail lane within the cycle, so a packet that
// crossed a shard cut is held by its input buffer like any other.
func engineRefs(t *testing.T, e *Engine, cycle int64) [][]int32 {
	t.Helper()
	for i, lane := range e.mail {
		if len(lane.arr) != 0 {
			t.Fatalf("cycle %d: mail lane %d still holds %d packets between cycles", cycle, i, len(lane.arr))
		}
	}
	held := kernelRefs(t, &e.kernel, cycle)
	for si, f := range e.outFull {
		if f != 0 {
			w := e.owner[si/(e.ports*e.bufClasses)]
			held[w] = append(held[w], e.outRef[si])
		}
	}
	for v := 0; v < e.nodes; v++ {
		for si := e.inBase[v]; si < e.inBase[v]+e.inDeg[v]; si++ {
			if e.inFull[si] != 0 {
				held[e.owner[v]] = append(held[e.owner[v]], e.inRef[si])
			}
		}
	}
	return held
}

// checkRefs asserts, between two cycles, that every record of a shard's
// table is exactly one of free or held by a slot — no reference leaked, none
// freed or held twice — that the held
// records are the packets in flight, and that no table is longer than slots,
// the number of places a packet can wait.
func checkRefs(t *testing.T, k *kernel, held [][]int32, slots int, cycle int64) {
	t.Helper()
	live := 0
	for w := range k.tabs {
		tab := &k.tabs[w]
		if len(tab.pkts) > slots {
			t.Fatalf("cycle %d: table %d holds %d records, more than the %d slots", cycle, w, len(tab.pkts), slots)
		}
		state := make([]string, len(tab.pkts))
		mark := func(refs []int32, as string) {
			for _, r := range refs {
				if r < 0 || int(r) >= len(tab.pkts) {
					t.Fatalf("cycle %d: table %d: %s reference %d out of range (%d records)", cycle, w, as, r, len(tab.pkts))
				}
				if state[r] != "" {
					t.Fatalf("cycle %d: table %d: reference %d is %s and %s", cycle, w, r, state[r], as)
				}
				state[r] = as
			}
		}
		mark(tab.free, "free")
		mark(held[w], "held")
		for r, s := range state {
			if s == "" {
				t.Fatalf("cycle %d: table %d: record %d is neither free nor held (leaked)", cycle, w, r)
			}
		}
		live += len(held[w])
	}
	if m := k.rs.m; int64(live) != m.InFlight {
		t.Fatalf("cycle %d: %d live records, %d packets in flight (injected %d, delivered %d, dropped %d)",
			cycle, live, m.InFlight, m.Injected, m.Delivered, m.Dropped)
	}
}

// engineSlots and atomicSlots count the places a packet can wait.
func engineSlots(e *Engine) int { return len(e.qref) + e.nodes + len(e.outRef) + len(e.inRef) }

func atomicSlots(e *AtomicEngine) int { return len(e.qref) + e.nodes }

// TestPacketRefAccounting steps hotspot runs on both engines and checks the
// reference accounting after every cycle: sharded runs, where packets cross
// tables at every shard boundary (Workers 7 cuts the 256 nodes into four
// 64-node shards), cut-through, and faults that purge queues and buffers
// mid-run, so the drop paths give references back.
func TestPacketRefAccounting(t *testing.T) {
	a := core.NewHypercubeAdaptive(8)
	nodes := a.Topology().Nodes()
	faults := func() *fault.Plan {
		p, err := fault.ParseSpec("links:0.05@0,node:5@60+40,node:200@90,link:9:2@120,links:0.05:3@150")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		engine string
		cfg    Config
	}{
		{"buffered", Config{Workers: 1}},
		{"buffered", Config{Workers: 2}},
		{"buffered", Config{Workers: 7}},
		{"buffered", Config{Workers: 2, CutThrough: true}},
		{"buffered", Config{Workers: 1, Faults: faults()}},
		{"buffered", Config{Workers: 7, Faults: faults()}},
		{"atomic", Config{}},
		{"atomic", Config{Faults: faults()}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/w%d/vct=%v/faults=%v", tc.engine, tc.cfg.Workers, tc.cfg.CutThrough, tc.cfg.Faults != nil)
		t.Run(name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Algorithm, cfg.Seed = a, 5
			eng, err := NewSimulator(tc.engine, cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := traffic.NewBernoulliSource(traffic.Hotspot{Nodes: nodes, Hot: 77, Fraction: 0.3}, nodes, 0.6, 9)
			eng.Start(src, DynamicPlan(0, 200))
			for {
				done, err := eng.Step()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				cycle := eng.Metrics().Cycles
				switch e := eng.(type) {
				case *Engine:
					checkRefs(t, &e.kernel, engineRefs(t, e, cycle), engineSlots(e), cycle)
				case *AtomicEngine:
					checkRefs(t, &e.kernel, kernelRefs(t, &e.kernel, cycle), atomicSlots(e), cycle)
				}
			}
			m := eng.Metrics()
			if m.Delivered == 0 {
				t.Fatalf("nothing delivered: %+v", m)
			}
			if cfg.Faults != nil && m.Dropped == 0 {
				t.Fatalf("the faults dropped nothing, so no purge gave a reference back: %+v", m)
			}
		})
	}
}
