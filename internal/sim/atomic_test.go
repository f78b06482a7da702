package sim

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// atomicAlgos is the matrix the atomic-engine tests sweep: every family
// of portMaskAlgos plus a generated graph, whose
// links pair up but whose port numbers do not.
func atomicAlgos(t *testing.T) []struct {
	name string
	mk   func() core.Algorithm
} {
	t.Helper()
	graph, err := topology.NewRandomRegular(160, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	graphAlgo, err := core.NewGraphAdaptive(graph)
	if err != nil {
		t.Fatal(err)
	}
	return append(portMaskAlgos[:len(portMaskAlgos):len(portMaskAlgos)], struct {
		name string
		mk   func() core.Algorithm
	}{"graph", func() core.Algorithm { return graphAlgo }})
}

// atomicCell is one load point of the matrix.
type atomicCell struct {
	lambda float64 // 0: static, four packets per node
	cap    int
	policy Policy
}

func (c atomicCell) String() string {
	load := "static4"
	if c.lambda > 0 {
		load = fmt.Sprintf("lambda%g", c.lambda)
	}
	return fmt.Sprintf("%s/cap%d/%s", load, c.cap, c.policy)
}

// atomicCells spans an idle network, a loaded one and a saturated one, at
// queue capacities where nearly every head blocks (1), some do (2) and the
// paper's (5), under the policy that parks heads and one that never does.
func atomicCells() []atomicCell {
	var cells []atomicCell
	for _, lambda := range []float64{0, 0.3, 1} {
		for _, qcap := range []int{1, 2, 5} {
			for _, pol := range []Policy{PolicyFirstFree, PolicyRandom} {
				cells = append(cells, atomicCell{lambda, qcap, pol})
			}
		}
	}
	return cells
}

// start begins the cell's run on e: a drain of four packets per node, or
// 200 cycles of Bernoulli injection with the last 150 measured.
func (c atomicCell) start(e *AtomicEngine) {
	nodes := e.nodes
	if c.lambda == 0 {
		e.Start(traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 4, 99), StaticPlan(100_000))
		return
	}
	e.Start(traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, c.lambda, 99), DynamicPlan(50, 150))
}

// atomicGolden holds, per algorithm, the sha256 over the cells of
// atomicCells of each run's Metrics (and error: the capacity-1 drains of the
// shuffle-exchange, whose credited moves need two slots, end in ErrDeadlock),
// recorded on the commit before the sweep learned to skip empty and parked
// queues. The benchmark goldens pin the atomic
// engine on hypercubes only; this pins the other topologies.
var atomicGolden = map[string]string{
	"hypercube":      "644bee44c7fa1799fa123cb148b100083e48bfd214979b363dd0a624bd859b60",
	"hypercube-hung": "7954342fa52b1e78a13e9331ca9dd989a91d626ebc777ef88c895df330957403",
	"mesh":           "a3c33ec2d384482a87f51d885affb6b38619b94dd919ceff6305365a03e6637e",
	"mesh-3d":        "3e12c14d199c9ca00877650840760245929dad94b4f40f1aadacadc593237900",
	"mesh-twophase":  "6e392d695beb61ae2eea580dfb1f230076b9782c76f535a71c150f073a749c52",
	"torus":          "b3e6ceb1823fc7d405c836f653fd63dc17610c777168b7eac0f626483a9a4db0",
	"torus-3d":       "500119b06e6b08cb54bcf88005d945780c658fe8eeab424bdadb3fec109a0897",
	"shuffle":        "0d945c13d56053d57963e58109f325002f5768732936727ab8a31b928f984eca",
	"shuffle-eager":  "3a3d128c088b17358b788553e3227d44315f023b6d0f240523096345409bcc77",
	"ccc":            "4ae292204ee3f3ac4bddab149fe803b3b2ba68851a341b045a47196d5945aae5",
	"graph":          "84c6d1bc9316ef99b963664641a452e245c6378ae58f51a40f2ef0bc4633df0a",
}

func TestAtomicGolden(t *testing.T) {
	for _, al := range atomicAlgos(t) {
		t.Run(al.name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			for _, c := range atomicCells() {
				e, err := NewAtomicEngine(Config{Algorithm: al.mk(), Seed: 12345, QueueCap: c.cap, Policy: c.policy})
				if err != nil {
					t.Fatal(err)
				}
				c.start(e)
				var runErr error
				for done := false; !done; {
					done, runErr = e.Step()
				}
				fmt.Fprintf(h, "%s %+v %v\n", c, e.Metrics(), runErr)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != atomicGolden[al.name] {
				t.Errorf("metrics digest %s, recorded %s", got, atomicGolden[al.name])
			}
		})
	}
}

// queueIDs flattens the central queues into one slice: each queue's length,
// then its packet IDs in FIFO order.
func queueIDs(e *AtomicEngine) []int64 {
	var ids []int64
	for qi, n := range e.qlen {
		ids = append(ids, int64(n))
		for i := int32(0); i < n; i++ {
			ids = append(ids, e.qAt(qi, i).ID)
		}
	}
	return ids
}

// anyParked reports whether any queue of e is parked.
func anyParked(e *AtomicEngine) bool {
	return slices.ContainsFunc(e.stuck, func(w uint64) bool { return w != 0 })
}

// stepTwins steps a and b through the started run side by side and fails at
// the first cycle after which they differ in any queue's content, in the
// injection bitmap, in Metrics or in the metrics-core snapshot. It returns
// the number of cycles in which a had a parked queue.
func stepTwins(t *testing.T, a, b *AtomicEngine) (parkedCycles int) {
	t.Helper()
	for cycle := 0; ; cycle++ {
		doneA, errA := a.Step()
		doneB, errB := b.Step()
		if doneA != doneB || fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("cycle %d: done %v (%v) against the twin's %v (%v)", cycle, doneA, errA, doneB, errB)
		}
		if ma, mb := a.Metrics(), b.Metrics(); ma != mb {
			t.Fatalf("cycle %d: metrics\n got  %+v\n twin %+v", cycle, ma, mb)
		}
		if sa, sb := a.Obs().Latest(), b.Obs().Latest(); sa != sb {
			t.Fatalf("cycle %d: obs snapshot: output stalls %d / %d, link transfers %d / %d, queue-length observations %d / %d",
				cycle, sa.Counter(obs.COutputStalls), sb.Counter(obs.COutputStalls),
				sa.Counter(obs.CLinkTransfers), sb.Counter(obs.CLinkTransfers),
				sa.HistCount[obs.HQueueLen], sb.HistCount[obs.HQueueLen])
		}
		if !slices.Equal(a.injFull, b.injFull) {
			t.Fatalf("cycle %d: injection bitmaps differ", cycle)
		}
		if !slices.Equal(queueIDs(a), queueIDs(b)) {
			t.Fatalf("cycle %d: queue contents differ", cycle)
		}
		if anyParked(a) {
			parkedCycles++
		}
		if doneA {
			return parkedCycles
		}
	}
}

// TestAtomicParkDifferential holds the parking sweep to the plain one: an
// engine that parks blocked heads and its never-parking twin, which routes
// every head every cycle, must agree on the whole network state after
// every single cycle — including the metrics core, whose COutputStalls
// counts parked heads the sweep never visits.
func TestAtomicParkDifferential(t *testing.T) {
	for _, al := range atomicAlgos(t) {
		t.Run(al.name, func(t *testing.T) {
			t.Parallel()
			parked := 0
			for _, c := range atomicCells() {
				t.Run(c.String(), func(t *testing.T) {
					cfg := Config{Algorithm: al.mk(), Seed: 12345, QueueCap: c.cap, Policy: c.policy, Metrics: true}
					a, err := NewAtomicEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := NewAtomicEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					b.park = false
					if want := c.policy == PolicyFirstFree; a.park != want {
						t.Fatalf("park = %v, want %v", a.park, want)
					}
					c.start(a)
					c.start(b)
					n := stepTwins(t, a, b)
					if !a.park && n > 0 {
						t.Fatalf("an engine that must not park had a parked head in %d cycles", n)
					}
					parked += n
				})
			}
			if parked == 0 {
				t.Error("no cell ever parked a head: the comparison showed nothing")
			}
		})
	}
}

// TestAtomicParkFaultsOff: with a fault plan a head's admissible set changes
// without any pop (links die and revive), so the engine must not park.
func TestAtomicParkFaultsOff(t *testing.T) {
	plan := func() *fault.Plan {
		p := &fault.Plan{}
		p.FailRandomLinks(0.05, 1, 0, fault.Forever)
		p.FailNode(9, 40, 60)
		return p
	}
	for _, mk := range []func() core.Algorithm{
		func() core.Algorithm { return core.NewHypercubeAdaptive(6) },
		func() core.Algorithm { return core.NewTorusAdaptive(6, 6) },
	} {
		cfg := Config{Algorithm: mk(), Seed: 12345, QueueCap: 2, Metrics: true, Faults: plan()}
		a, err := NewAtomicEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.park {
			t.Fatalf("%s: a faulted engine parks", cfg.Algorithm.Name())
		}
		atomicCell{lambda: 1, cap: 2}.start(a)
		for done := false; !done; {
			done, _ = a.Step()
			if anyParked(a) {
				t.Fatalf("%s: cycle %d: a head is parked under faults", cfg.Algorithm.Name(), a.Metrics().Cycles)
			}
		}
		if a.Metrics().Dropped == 0 {
			t.Errorf("%s: the node outage dropped nothing: the plan did not bite", cfg.Algorithm.Name())
		}
	}
}

// checkParkState asserts, between two cycles, what the sweep takes on trust
// when it skips a queue: occ covers every non-empty queue, and every parked
// queue is non-empty with a head whose moves are all remote and uncredited
// and — by brute force over its PortMask — lead to full queues only, or to
// a queue on deferred, which the next cycle rechecks after its drain. It
// returns how many parked heads wait on deferred.
func checkParkState(t *testing.T, e *AtomicEngine, cycle int64) (onDeferred int) {
	t.Helper()
	var pm core.PortMasks
	for qi, n := range e.qlen {
		bit := uint64(1) << (uint(qi) & 63)
		if n > 0 && e.occ[qi>>6]&bit == 0 {
			t.Fatalf("cycle %d: queue %d holds %d packets and is not in occ", cycle, qi, n)
		}
		if e.stuck[qi>>6]&bit == 0 {
			continue
		}
		if n == 0 {
			t.Fatalf("cycle %d: queue %d is parked and empty", cycle, qi)
		}
		u, c := int32(qi/e.classes), core.QueueClass(qi%e.classes)
		pkt := e.qAt(qi, 0)
		if !e.algo.PortMask(u, c, pkt.Work, pkt.Dst, &pm) {
			t.Fatalf("cycle %d: queue %d (node %d class %d) is parked but its head %d has a delivery, internal or credited move", cycle, qi, u, c, pkt.ID)
		}
		for m := pm.StaticUnion() | pm.Dyn; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			tc, _ := pm.Class(p)
			tq := e.topo.Neighbor(int(u), p)*e.classes + int(tc)
			if e.qFree(tq) == 0 {
				continue
			}
			if !slices.Contains(e.deferred, int32(tq)) {
				t.Fatalf("cycle %d: queue %d (node %d class %d) is parked but its head %d can move through port %d", cycle, qi, u, c, pkt.ID, p)
			}
			onDeferred++
			break
		}
	}
	return onDeferred
}

// TestAtomicParkInvariant steps saturated capacity-1 and capacity-2 runs and
// checks the parked set after every cycle: a parked head's targets are full
// or wait on deferred for the next drain's recheck. Then it checks that the
// engines that must not park never do, blocked heads or not.
func TestAtomicParkInvariant(t *testing.T) {
	for _, al := range atomicAlgos(t) {
		t.Run(al.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range []atomicCell{{1, 1, PolicyFirstFree}, {0.3, 2, PolicyFirstFree}, {0, 1, PolicyFirstFree}} {
				e, err := NewAtomicEngine(Config{Algorithm: al.mk(), Seed: 7, QueueCap: c.cap})
				if err != nil {
					t.Fatal(err)
				}
				c.start(e)
				parked, waits := false, 0
				for done := false; !done; {
					done, _ = e.Step()
					waits += checkParkState(t, e, e.Metrics().Cycles)
					parked = parked || anyParked(e)
				}
				if c.lambda == 1 && (!parked || waits == 0) {
					t.Errorf("%s: parked a head: %v; heads waited on deferred %d times; a saturated capacity-1 run must do both", c, parked, waits)
				}
			}
		})
	}

	plan := &fault.Plan{}
	plan.FailRandomLinks(0.05, 1, 0, fault.Forever)
	for name, cfg := range map[string]Config{
		"random policy": {Algorithm: core.NewHypercubeAdaptive(6), Policy: PolicyRandom},
		"fault plan":    {Algorithm: core.NewHypercubeAdaptive(6), Faults: plan},
		"256 classes":   {Algorithm: newManyClassRing()},
	} {
		cfg.Seed, cfg.QueueCap = 7, 1
		e, err := NewAtomicEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e.park {
			t.Errorf("%s: the engine parks", name)
		}
		atomicCell{lambda: 1, cap: 1}.start(e)
		for done := false; !done; {
			if done, err = e.Step(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if anyParked(e) {
				t.Fatalf("%s: cycle %d: a queue is parked", name, e.Metrics().Cycles)
			}
		}
		if m := e.Metrics(); m.Delivered == 0 || m.Attempts == m.Successes {
			t.Errorf("%s: delivered %d, %d of %d injections accepted: the run never blocked", name, m.Delivered, m.Successes, m.Attempts)
		}
	}
}

// oneWayRing routes every packet clockwise round a ring in one queue class:
// queue qi is node qi, and the waiter on node u+1's queue is node u's head,
// one index behind it in the sweep.
type oneWayRing struct {
	core.Derived
	ring *topology.Torus
}

func newOneWayRing(n int) *oneWayRing {
	r := &oneWayRing{ring: topology.NewTorus(n)}
	r.Derived = core.Derive(r)
	return r
}

func (r *oneWayRing) Name() string                                  { return "one-way-ring" }
func (r *oneWayRing) Topology() topology.Topology                   { return r.ring }
func (r *oneWayRing) NumClasses() int                               { return 1 }
func (r *oneWayRing) ClassName(core.QueueClass) string              { return "q" }
func (r *oneWayRing) Props() core.Props                             { return core.Props{} }
func (r *oneWayRing) Inject(int32, int32) (core.QueueClass, uint32) { return 0, 0 }
func (r *oneWayRing) MaxHops(src, dst int32) int {
	return (int(dst) - int(src) + r.ring.Nodes()) % r.ring.Nodes()
}

func (r *oneWayRing) PortMask(node int32, _ core.QueueClass, _ uint32, dst int32, pm *core.PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	*pm = core.PortMasks{PerPort: true, StaticMask: 1} // port 0 is +1, into class 0
	return true
}

// scriptSource injects packet dst at node u in cycle c for each entry
// {c, u, dst}, and nothing else.
type scriptSource [][3]int32

func (s scriptSource) Wants(node int32, cycle int64) bool {
	return slices.ContainsFunc(s, func(e [3]int32) bool { return int64(e[0]) == cycle && e[1] == node })
}

func (s scriptSource) Take(node int32, cycle int64) int32 {
	i := slices.IndexFunc(s, func(e [3]int32) bool { return int64(e[0]) == cycle && e[1] == node })
	return s[i][2]
}

func (s scriptSource) Exhausted(int32) bool { return false }

// TestAtomicDeferredWake pins when a waiter behind the sweep wakes. On a
// capacity-1 ring, cycle 0 injects head A at node 1 (for node 3) and head B
// at node 2 (for node 4). In cycle 1, A blocks on B's queue and parks, then
// B moves on: a pop from a full queue behind which A waits, so queue 2 goes
// on deferred. In cycle 2, either nothing is injected and the drain leaves
// queue 2 free, so A must wake and move; or node 2 injects C, the drain
// refills queue 2, and A must stay parked without being visited.
func TestAtomicDeferredWake(t *testing.T) {
	for _, refill := range []bool{false, true} {
		script := scriptSource{{0, 1, 3}, {0, 2, 4}}
		if refill {
			script = append(script, [3]int32{2, 2, 5})
		}
		e, err := NewAtomicEngine(Config{Algorithm: newOneWayRing(6), Seed: 1, QueueCap: 1, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(script, DynamicPlan(0, 10))
		for range 2 {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if e.stuck[0] != 1<<1 || !slices.Equal(e.deferred, []int32{2}) {
			t.Fatalf("refill %v: after cycle 1: parked %b, deferred %v; want queue 1 parked and queue 2 deferred", refill, e.stuck[0], e.deferred)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		visited, parked := e.snap[0]>>1&1 != 0, e.stuck[0]>>1&1 != 0
		moved := e.qlen[1] == 0
		if refill && (visited || !parked || moved) {
			t.Errorf("queue 2 refilled by the drain: A visited %v, parked %v, moved %v; want parked and not visited", visited, parked, moved)
		}
		if !refill && (!visited || parked || !moved || e.qAt(2, 0).Src != 1) {
			t.Errorf("queue 2 free after the drain: A visited %v, parked %v, moved %v; want it visited and in queue 2", visited, parked, moved)
		}
		checkParkState(t, e, 3)
		// A stalls in cycle 1, and in cycle 2 too if the drain refilled its
		// target: the snapshot's charge is taken back only for a woken A.
		want := int64(1)
		if refill {
			want = 2
		}
		if snap := e.Obs().Latest(); snap.Counter(obs.COutputStalls) != want {
			t.Errorf("refill %v: %d output stalls, want %d", refill, snap.Counter(obs.COutputStalls), want)
		}
	}
}

// TestAtomicInNeighbors: the lists wake walks are the exact inverse of the
// topology's links, self-loops dropped — on the shuffle-exchange, whose
// shuffle links are one-way (waking out-neighbors there misses the waiter),
// and on the CCC.
func TestAtomicInNeighbors(t *testing.T) {
	for _, a := range []core.Algorithm{core.NewShuffleExchangeAdaptive(6), core.NewCCCAdaptive(4)} {
		e, err := NewAtomicEngine(Config{Algorithm: a, Seed: 7, QueueCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		atomicCell{lambda: 1, cap: 1}.start(e)
		for e.inOff == nil {
			if done, err := e.Step(); done {
				t.Fatalf("%s: the run ended without parking a head (%v)", a.Name(), err)
			}
		}
		topo := a.Topology()
		want := make([][]int32, topo.Nodes())
		oneWay := false
		for u := 0; u < topo.Nodes(); u++ {
			for p := 0; p < topo.Ports(); p++ {
				v := topo.Neighbor(u, p)
				if v == topology.None || v == u {
					continue
				}
				want[v] = append(want[v], int32(u))
				back := false
				for q := 0; q < topo.Ports(); q++ {
					back = back || topo.Neighbor(v, q) == u
				}
				oneWay = oneWay || !back
			}
		}
		for v := range want {
			got := slices.Clone(e.inNbr[e.inOff[v]:e.inOff[v+1]])
			slices.Sort(got)
			slices.Sort(want[v])
			if !slices.Equal(got, want[v]) {
				t.Fatalf("%s: node %d: in-neighbors %v, want %v", a.Name(), v, got, want[v])
			}
		}
		if _, shuffle := topo.(*topology.ShuffleExchange); shuffle && !oneWay {
			t.Errorf("%s: no one-way link found: the test does not tell in- from out-neighbors", a.Name())
		}
	}
}

// TestAtomicRefusesBufferedOptions: the option that changes what the
// buffered node simulates, cut-through, is an error on the atomic engine,
// not silently ignored; the execution knobs, which cannot change a result,
// stay accepted.
func TestAtomicRefusesBufferedOptions(t *testing.T) {
	for _, tc := range []struct {
		field string // "" = accepted
		cfg   Config
	}{
		{"CutThrough", Config{CutThrough: true}},
		{"", Config{Workers: 4}},
		{"", Config{HeadOnly: true}},
	} {
		tc.cfg.Algorithm = core.NewHypercubeAdaptive(4)
		_, err := NewAtomicEngine(tc.cfg)
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: %v", tc.cfg, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), "Config."+tc.field)):
			t.Errorf("Config.%s set: err = %v, want an error naming the field", tc.field, err)
		}
		if _, err := NewEngine(tc.cfg); err != nil {
			t.Errorf("buffered engine, %+v: %v", tc.cfg, err)
		}
	}
}
