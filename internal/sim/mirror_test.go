package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// checkLinkState asserts, between two cycles, everything the link and drain
// phases take on trust: the downstream-full mirror equals the receivers'
// occupancy through inSrc, outMask equals the packed outFull occupancy, the
// occupancy counters equal the flag counts (the fold phase has taken in
// every arrival that crossed a shard cut, see engineRefs), every buffer flag
// is the arrival code of the packet it holds, every buffered reference is a
// live record of its node's table (checkRefs), and every parked packet is
// blocked (checkParked).
func checkLinkState(t *testing.T, e *Engine, cycle int64) {
	t.Helper()
	checkRefs(t, &e.kernel, engineRefs(t, e, cycle), engineSlots(e), cycle)
	checkParked(t, e, cycle)
	mirrored := 0
	for v := 0; v < e.nodes; v++ {
		full := int32(0)
		for si := e.inBase[v]; si < e.inBase[v]+e.inDeg[v]; si++ {
			bc := si % int32(e.bufClasses)
			so := e.inSrc[si/int32(e.bufClasses)] + bc
			if l := int(so) / e.bufClasses; e.nbr[l] != int32(v) || e.linkDst[l]+bc != si {
				t.Fatalf("cycle %d: inSrc maps node %d's buffer %d to slot %d, not its sender", cycle, v, si, so)
			}
			if e.dnFull[so] != occupied(e.inFull[si]) {
				t.Fatalf("cycle %d: node %d input slot %d: inFull %d, sender mirror dnFull[%d] %d",
					cycle, v, si, e.inFull[si], so, e.dnFull[so])
			}
			if f := e.inFull[si]; f != 0 {
				if code := e.arrivalCode(int(so)/e.bufClasses, e.pkt(int32(v), e.inRef[si])); f != code {
					t.Fatalf("cycle %d: node %d input slot %d: flag %d, arrival code %d", cycle, v, si, f, code)
				}
			}
			full += int32(occupied(e.inFull[si]))
		}
		mirrored += int(full)
		if e.inCount[v] != full {
			t.Fatalf("cycle %d: node %d: inCount %d != %d occupied input buffers",
				cycle, v, e.inCount[v], full)
		}
	}
	set := 0
	for _, f := range e.dnFull {
		set += int(f)
	}
	if set != mirrored {
		t.Fatalf("cycle %d: %d dnFull flags set, %d input buffers occupied", cycle, set, mirrored)
	}
	ns := e.ports * e.bufClasses
	for u := 0; u < e.nodes; u++ {
		out := make([]uint8, ns)
		full := int32(0)
		for p := 0; p < e.ports; p++ {
			onLink := uint8(0)
			for bc := 0; bc < e.bufClasses; bc++ {
				si := (u*e.ports+p)*e.bufClasses + bc
				if f := e.outFull[si]; f != 0 {
					if code := e.arrivalCode(u*e.ports+p, e.pkt(int32(u), e.outRef[si])); f != code {
						t.Fatalf("cycle %d: node %d output slot %d: flag %d, arrival code %d", cycle, u, si, f, code)
					}
				}
				out[p*e.bufClasses+bc] = occupied(e.outFull[si])
				onLink += out[p*e.bufClasses+bc]
			}
			if e.outLink[u*e.ports+p] != onLink {
				t.Fatalf("cycle %d: node %d port %d: outLink %d != %d occupied", cycle, u, p, e.outLink[u*e.ports+p], onLink)
			}
			full += int32(onLink)
		}
		if e.outCount[u] != full {
			t.Fatalf("cycle %d: node %d: outCount %d != %d occupied output buffers", cycle, u, e.outCount[u], full)
		}
		if e.waitFast && e.outMask[u] != packFlags(out) {
			t.Fatalf("cycle %d: node %d: outMask %#x != packed outFull %#x", cycle, u, e.outMask[u], packFlags(out))
		}
	}
}

// checkParked asserts that the wait-mask cache skips only packets whose scan
// would fail: a packet phase (a) would skip as parked, routed again now, has
// no delivery and no internal move to take, and finds the output buffer of
// every candidate port full — so no credit check is ever reached for it.
func checkParked(t *testing.T, e *Engine, cycle int64) {
	t.Helper()
	if !e.waitFast {
		return
	}
	var pm core.PortMasks
	for qi, n := range e.qlen {
		u, c := int32(qi/e.classes), qi%e.classes
		obase := int(u) * e.ports * e.bufClasses
		for i := int32(0); i < n; i++ {
			si := e.qSlot(qi, i)
			if !parked(e.qwait[si], e.outMask[u]) {
				continue
			}
			pkt := e.pkt(u, e.qref[si])
			if !e.algo.PortMask(u, core.QueueClass(c), pkt.Work, pkt.Dst, &pm) && (pm.Deliver || pm.Internal != 0) {
				t.Fatalf("cycle %d: node %d queue %d entry %d parked with a delivery or an internal move (packet %d)", cycle, u, c, i, pkt.ID)
			}
			for m := pm.StaticUnion() | pm.Dyn; m != 0; m &= m - 1 {
				p := bits.TrailingZeros64(m)
				tc, dyn := pm.Class(p)
				b := int(tc)
				if dyn {
					b = e.classes
				}
				if e.outFull[obase+p*e.bufClasses+b] == 0 {
					t.Fatalf("cycle %d: node %d queue %d entry %d (packet %d) parked, but its port %d buffer %d is free",
						cycle, u, c, i, pkt.ID, p, b)
				}
			}
		}
	}
}

// occupied is a buffer flag as 0 or 1.
func occupied(f uint8) uint8 {
	if f != 0 {
		return 1
	}
	return 0
}

// TestLinkMirrorInvariant steps loaded runs and checks the link state after
// every cycle: both link paths (waitFast, credited algorithms included, and
// the faulted scan),
// cut-through, a node that dies and revives mid-run, and sharded runs, where
// the mirror's bytes are set and cleared by different workers (shards are
// 64-aligned: the 128-node hypercube cuts into two, the 160-node graph into
// three; the 64-node networks stay on one worker whatever Workers says).
func TestLinkMirrorInvariant(t *testing.T) {
	graph, err := topology.NewRandomRegular(160, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	graphAlgo, err := core.NewGraphAdaptive(graph)
	if err != nil {
		t.Fatal(err)
	}
	algos := []struct {
		a      core.Algorithm
		lambda float64
	}{
		{core.NewHypercubeAdaptive(7), 1}, // 21 output slots per node: a packed tail of 5
		{core.NewMeshAdaptive(8, 8), 0.6},
		{core.NewTorusAdaptive(8, 8), 0.6},
		{core.NewCCCAdaptive(4), 0.5},
		{core.NewShuffleExchangeAdaptive(6), 0.4}, // credited: parks its heads, one worker
		{graphAlgo, 0.5},
	}
	nodeOutage := func() *fault.Plan {
		p := &fault.Plan{}
		p.FailNode(5, 40, 60)
		return p
	}
	variants := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"cut-through", Config{CutThrough: true}},
		{"node-outage", Config{Faults: nodeOutage()}},
	}
	for _, al := range algos {
		for _, v := range variants {
			for workers := 1; workers <= 3; workers++ {
				if al.a.Props().Credits && workers > 1 {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/w%d", al.a.Name(), v.name, workers), func(t *testing.T) {
					cfg := v.cfg
					cfg.Algorithm, cfg.Seed, cfg.Workers, cfg.QueueCap = al.a, 11, workers, 3
					e, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if wantFast := cfg.Faults == nil; e.waitFast != wantFast {
						t.Fatalf("waitFast = %v, want %v", e.waitFast, wantFast)
					}
					nodes := al.a.Topology().Nodes()
					e.Start(traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, al.lambda, 3), DynamicPlan(0, 160))
					for {
						done, err := e.Step()
						if err != nil {
							t.Fatal(err)
						}
						if done {
							break
						}
						checkLinkState(t, e, e.Metrics().Cycles)
					}
					if m := e.Metrics(); m.Delivered == 0 || m.Moves == 0 {
						t.Fatalf("nothing moved: %+v", m)
					}
				})
			}
		}
	}
}

// guarded returns a copy of flags with a run of set bytes on either side, so
// a scan that reads past its slice finds flags the reference does not.
func guarded(flags []uint8) []uint8 {
	buf := make([]uint8, len(flags)+32)
	for i := range buf {
		buf[i] = 1
	}
	copy(buf[16:], flags)
	return buf[16 : 16+len(flags) : 16+len(flags)]
}

// TestScanOrderDrain compares the word-at-a-time phase (b) iterator with the
// per-byte rotated scan it replaced: same slots, same order, same stop once
// `left` occupied slots have been seen.
func TestScanOrderDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, deg := range []int{1, 7, 8, 9, 33, 63, 64, 65, 200} {
		total := deg + 1
		for _, density := range []float64{0, 0.05, 0.3, 1} {
			for trial := 0; trial < 6; trial++ {
				flags := make([]uint8, deg)
				occupied := 0
				for i := range flags {
					if rng.Float64() < density {
						flags[i] = 1
						occupied++
					}
				}
				flags = guarded(flags)
				inj := trial%2 == 0
				if inj {
					occupied++
				}
				for start := 0; start < total; start++ {
					for _, left := range []int{occupied, occupied / 2, 1, occupied + 1} {
						var want, got []int
						for i, l := 0, left; i < total && l > 0; i++ {
							s := (start + i) % total
							if (s == deg && inj) || (s < deg && flags[s] != 0) {
								want = append(want, s)
								l--
							}
						}
						for i, l := 0, left; l > 0; i++ {
							if i = nextDrain(flags, inj, start, i); i >= total {
								break
							}
							l--
							got = append(got, (start+i)%total)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("deg %d start %d inj %v left %d flags %v:\n got  %v\n want %v",
								deg, start, inj, left, flags, got, want)
						}
					}
				}
			}
		}
	}
}

// TestScanOrderClassPick compares the rotated ready-bit pick and the
// rotation step with the per-class loop of the old link scan, over every
// ready set and every rotation start.
func TestScanOrderClassPick(t *testing.T) {
	for n := 2; n <= 9; n++ {
		for ready := uint64(1); ready < 1<<uint(n); ready++ {
			for rr := 0; rr < n; rr++ {
				want := -1
				for i := 0; i < n && want < 0; i++ {
					if bc := (rr + i) % n; ready>>uint(bc)&1 != 0 {
						want = bc
					}
				}
				if got := pickClass(ready, uint32(rr)); got != want {
					t.Fatalf("bufClasses %d ready %#b linkRR %d: picked class %d, want %d", n, ready, rr, got, want)
				}
				if got, want := rrNext(uint32(rr), n), uint32((rr+1)%n); got != want {
					t.Fatalf("bufClasses %d linkRR %d: next %d, want %d", n, rr, got, want)
				}
			}
		}
	}
}

// TestScanOrderPackFlags compares the eight-at-a-time flag packing with a
// per-byte loop at every length a node's slot count can take.
func TestScanOrderPackFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 64; n++ {
		for trial := 0; trial < 50; trial++ {
			flags := make([]uint8, n)
			want := uint64(0)
			for i := range flags {
				if rng.Intn(3) == 0 {
					flags[i] = 1
					want |= 1 << uint(i)
				}
			}
			if got := packFlags(guarded(flags)); got != want {
				t.Fatalf("len %d flags %v: packed %#x, want %#x", n, flags, got, want)
			}
		}
	}
}
