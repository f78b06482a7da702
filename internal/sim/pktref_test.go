package sim

import (
	"fmt"
	"slices"
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
// records are the packets in flight, and that no table, by length or by
// capacity, and no free list outgrows slots[w], the number of places a
// packet can wait in shard w.
func checkRefs(t *testing.T, k *kernel, held [][]int32, slots []int, cycle int64) {
	t.Helper()
	live := 0
	for w := range k.tabs {
		tab := &k.tabs[w]
		if len(tab.pkts) > slots[w] || cap(tab.pkts) > slots[w] || cap(tab.free) > slots[w] {
			t.Fatalf("cycle %d: table %d holds %d records (capacity %d, free list capacity %d), more than the shard's %d slots",
				cycle, w, len(tab.pkts), cap(tab.pkts), cap(tab.free), slots[w])
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
		mark(tab.free[:tab.nfree], "free")
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

// engineSlots and atomicSlots count, per shard, the places a packet can
// wait: a node's central-queue slots and injection queue, and on the
// buffered engine its output buffers and the input buffers of its in-links.
func engineSlots(e *Engine) []int {
	slots := make([]int, len(e.tabs))
	for u := 0; u < e.nodes; u++ {
		slots[e.owner[u]] += e.classes*e.queueCap + 1 + e.ports*e.bufClasses + int(e.inDeg[u])
	}
	return slots
}

func atomicSlots(e *AtomicEngine) []int { return []int{len(e.qref) + e.nodes} }

// TestPacketRefAccounting steps hotspot runs on both engines and checks the
// reference accounting after every cycle: sharded runs, where packets cross
// tables at every shard boundary (Workers 7 cuts the 256 nodes into four
// 64-node shards and leaves three empty), cut-through, and faults that
// purge queues and buffers mid-run, so the drop paths give references back.
// The saturated case, random traffic at λ=1 on the atomic engine with
// one-slot queues (it gridlocks there), fills its table to three quarters
// of the slot count, where growth by append overshot the slot count (852
// records for 768 slots).
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
		engine    string
		cfg       Config
		saturated bool
	}{
		{"buffered", Config{Workers: 1}, false},
		{"buffered", Config{Workers: 2}, false},
		{"buffered", Config{Workers: 7}, false},
		{"buffered", Config{Workers: 2, CutThrough: true}, false},
		{"buffered", Config{Workers: 1, Faults: faults()}, false},
		{"buffered", Config{Workers: 7, Faults: faults()}, false},
		{"atomic", Config{}, false},
		{"atomic", Config{Faults: faults()}, false},
		{"atomic", Config{QueueCap: 1}, true},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/w%d/vct=%v/faults=%v", tc.engine, tc.cfg.Workers, tc.cfg.CutThrough, tc.cfg.Faults != nil)
		if tc.saturated {
			name += "/saturated"
		}
		t.Run(name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Algorithm, cfg.Seed = a, 5
			eng, err := NewSimulator(tc.engine, cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := traffic.NewBernoulliSource(traffic.Hotspot{Nodes: nodes, Hot: 77, Fraction: 0.3}, nodes, 0.6, 9)
			cycles := int64(200)
			if tc.saturated {
				src, cycles = traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 1, 9), 600
			}
			eng.Start(src, DynamicPlan(0, cycles))
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

// TestPacketTableGrowth: a full table and a full free list grow as append
// grows them and stop exactly at the slot count, where append would have
// gone on to 32.
func TestPacketTableGrowth(t *testing.T) {
	const slots = 21
	tab := pktTable{pkts: make([]core.Packet, 0, 4), free: make([]int32, 0, 4), slots: slots}
	var caps []int
	for i := 0; i < slots; i++ {
		tab.alloc()
		if c := cap(tab.pkts); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	for r := int32(0); r < slots; r++ {
		tab.release(r)
	}
	if want := []int{4, 8, 16, slots}; !slices.Equal(caps, want) || cap(tab.free) != slots {
		t.Fatalf("table capacities %v, want %v; free list capacity %d, want %d", caps, want, cap(tab.free), slots)
	}
}
