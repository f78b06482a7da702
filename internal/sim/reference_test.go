package sim_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// ref is a deliberately naive stepper of Section 2's model, the one
// sim.AtomicEngine is checked against: plain FIFO slices of packets, the
// moves core.Candidates lists, one Wants/Take round per node, and faults
// replayed from the compiled fault schedule onto a topology.Liveness. Every
// head is routed every cycle; nothing is parked, masked or cached. It
// shares with the engines only pure helpers (xrand, the misroute hash), the
// model's constants and the packet-id convention.
type ref struct {
	a                 core.Algorithm
	classes, cap      int
	pol               sim.Policy
	src               sim.TrafficSource
	start, end        int64 // measurement window [start, end); end < 0: no end
	rngs              []xrand.RNG
	nextID            []int64
	inject            []*core.Packet
	queues            [][]core.Packet // node*classes+class, head first
	m                 sim.Metrics
	stalls, transfers int64       // obs.COutputStalls, obs.CLinkTransfers
	moves             []core.Move // route's scratch
	idle              int         // cycles in a row without a move while packets remain

	// Faults: live is nil without a plan.
	events  []fault.Event
	live    *topology.Liveness
	budget  int
	injFail []int
	injNext []int64
}

func newRef(t *testing.T, cfg sim.Config, src sim.TrafficSource, plan sim.Plan) *ref {
	a := cfg.Algorithm
	n := a.Topology().Nodes()
	r := &ref{
		a: a, classes: a.NumClasses(), cap: cfg.QueueCap, pol: cfg.Policy, src: src,
		start: plan.Warmup, end: plan.Warmup + plan.Measure,
		rngs: make([]xrand.RNG, n), nextID: make([]int64, n),
		inject: make([]*core.Packet, n), queues: make([][]core.Packet, n*a.NumClasses()),
	}
	if plan.Drain {
		r.start, r.end = 0, -1
	}
	for u := range r.rngs {
		r.rngs[u] = xrand.New(cfg.Seed, int32(u))
		r.nextID[u] = int64(u) << 36
	}
	if cfg.Faults != nil {
		sched, err := cfg.Faults.Compile(a.Topology())
		if err != nil {
			t.Fatal(err)
		}
		r.events, r.live, r.budget = sched.Events, topology.NewLiveness(a.Topology()), cfg.HopBudget
		if r.budget <= 0 {
			r.budget = sched.HopBudget
		}
		if r.budget <= 0 {
			r.budget = sim.DefaultHopBudget
		}
		r.injFail, r.injNext = make([]int, n), make([]int64, n)
	}
	return r
}

// step simulates one cycle: fault events, injection, the injection drain,
// then Route(q) for every queue that held a packet when the cycle began.
func (r *ref) step() {
	c, moves := r.m.Cycles, r.m.Moves
	for ; len(r.events) > 0 && r.events[0].At <= c; r.events = r.events[1:] {
		ev := r.events[0]
		u, p := int(ev.Node), int(ev.Port)
		switch {
		case p < 0 && ev.Up:
			r.live.ReviveNode(u)
		case p < 0 && r.live.KillNode(u):
			for qi := u * r.classes; qi < (u+1)*r.classes; qi++ {
				r.m.Dropped += int64(len(r.queues[qi]))
				r.queues[qi] = nil
			}
			if r.inject[u] != nil {
				r.m.Dropped++
				r.inject[u] = nil
			}
		case p >= 0 && ev.Up:
			r.live.ReviveLink(u, p)
		case p >= 0:
			r.live.KillLink(u, p)
		}
	}
	r.injectAll(c)
	var heads []int // a queue filled later this cycle, by the drain too, waits
	for qi, q := range r.queues {
		if len(q) > 0 {
			heads = append(heads, qi)
		}
	}
	for u, p := range r.inject {
		switch {
		case p == nil:
		case int(p.Dst) == u:
			r.deliver(*p, c)
			r.inject[u] = nil
		case len(r.queues[u*r.classes+int(p.Class)]) < r.cap:
			p.InjectedAt = c // latency runs from network entry
			r.push(u*r.classes+int(p.Class), *p)
			r.inject[u] = nil
			r.m.Moves++
		}
	}
	for _, qi := range heads {
		r.route(qi, c)
	}
	r.m.Cycles++
	r.m.InFlight = r.m.Injected - r.m.Delivered - r.m.Dropped
	r.idle++
	if r.m.Moves != moves || r.m.InFlight == 0 {
		r.idle = 0
	}
}

// injectAll lets every node attempt one injection into its injection queue,
// backing off after a failed attempt under faults.
func (r *ref) injectAll(c int64) {
	for u := range r.inject {
		node := int32(u)
		if r.src.Exhausted(node) || r.live != nil && (!r.live.NodeAlive(u) || c < r.injNext[u]) || !r.src.Wants(node, c) {
			continue
		}
		if r.inWindow(c) {
			r.m.Attempts++
		}
		if r.inject[u] != nil {
			if r.live != nil {
				r.injFail[u] = min(r.injFail[u]+1, sim.MaxBackoffShift)
				r.injNext[u] = c + 1<<r.injFail[u]
			}
			continue
		}
		dst := r.src.Take(node, c)
		r.m.Injected++
		if r.inWindow(c) {
			r.m.Successes++
		}
		r.nextID[u]++
		if r.live != nil {
			r.injFail[u] = 0
			if !r.live.NodeAlive(int(dst)) || r.live.LivePorts(u) == 0 && int(dst) != u {
				r.m.Dropped++ // unroutable: counted as injected, then dropped
				continue
			}
		}
		class, work := r.a.Inject(node, dst)
		r.inject[u] = &core.Packet{ID: r.nextID[u], Src: node, Dst: dst, InjectedAt: c, Class: class, MinFree: 1, Work: work}
	}
}

// route is Route(q) for queue qi: its head takes the move the policy picks
// among the admissible ones, or misroutes when faults left it no candidate.
func (r *ref) route(qi int, c int64) {
	u, cl := int32(qi/r.classes), qi%r.classes
	pkt := r.queues[qi][0]
	var ok, static []core.Move
	r.moves = core.Candidates(r.a, u, core.QueueClass(cl), pkt.Work, pkt.Dst, r.moves[:0])
	moves := slices.DeleteFunc(r.moves, func(mv core.Move) bool {
		return mv.Port != core.PortInternal && r.live != nil && r.live.LivePorts(int(u))>>uint(mv.Port)&1 == 0
	})
	switch {
	case len(moves) == 0:
		r.misroute(qi, pkt, c)
		return
	case moves[0].Deliver:
		if r.pol == sim.PolicyRandom || r.pol == sim.PolicyStaticFirst {
			r.rngs[u].Next() // the draw among one candidate the random policies make
		}
		r.queues[qi] = r.queues[qi][1:]
		r.deliver(pkt, c)
		return
	}
	for _, mv := range moves {
		need := max(1, int(mv.Credit)) // Candidates sets Credit on static remote moves only
		if mv.Port == core.PortInternal && int(mv.Class) == cl || len(r.queues[int(mv.Node)*r.classes+int(mv.Class)]) <= r.cap-need {
			ok = append(ok, mv)
			if mv.Kind == core.Static {
				static = append(static, mv)
			}
		}
	}
	var mv core.Move
	switch {
	case len(ok) == 0:
		r.stalls++
		return
	case (r.pol == sim.PolicyFirstFree || r.pol == sim.PolicyLastFree) && pkt.Misrouted() && len(moves) > 1:
		mv = ok[sim.MisrouteHash(c, pkt.ID, pkt.HopCount())%uint32(len(ok))]
	case r.pol == sim.PolicyFirstFree:
		mv = ok[0]
	case r.pol == sim.PolicyLastFree:
		mv = ok[len(ok)-1]
	case r.pol == sim.PolicyStaticFirst && len(static) > 0:
		mv = static[r.rngs[u].Intn(len(static))]
	default:
		mv = ok[r.rngs[u].Intn(len(ok))]
	}
	if mv.Port == core.PortInternal && int(mv.Class) == cl {
		r.queues[qi][0].Work = mv.Work // an in-place step: the packet stays
		r.m.Moves++
		return
	}
	if mv.Port != core.PortInternal {
		pkt.Hops++
		r.transfers++
		if mv.Kind == core.Dynamic {
			r.m.DynamicMoves++
		}
	}
	pkt.Class, pkt.Work = mv.Class, mv.Work
	r.queues[qi] = r.queues[qi][1:]
	r.push(int(mv.Node)*r.classes+int(mv.Class), pkt)
	r.m.Moves++
}

// misroute moves the head of qi, whose every candidate port is dead, into
// the first neighbor's injection class with room, trying the live ports from
// a hashed one round; or drops it once its hop budget is spent.
func (r *ref) misroute(qi int, pkt core.Packet, c int64) {
	u := qi / r.classes
	var ports []int
	for p := 0; p < r.a.Topology().Ports(); p++ {
		if r.live.LivePorts(u)>>uint(p)&1 != 0 {
			ports = append(ports, p)
		}
	}
	if len(ports) == 0 || pkt.HopCount() >= r.a.MaxHops(pkt.Src, pkt.Dst)+r.budget {
		r.queues[qi] = r.queues[qi][1:]
		r.m.Dropped++
		return
	}
	k := int(sim.MisrouteHash(c, pkt.ID, pkt.HopCount()) % uint32(len(ports)))
	for _, p := range slices.Concat(ports[k:], ports[:k]) {
		v := r.a.Topology().Neighbor(u, p)
		class, work := r.a.Inject(int32(v), pkt.Dst)
		if tq := v*r.classes + int(class); len(r.queues[tq]) < r.cap {
			pkt.Hops++
			pkt.MarkMisrouted()
			pkt.Class, pkt.Work = class, work
			r.queues[qi] = r.queues[qi][1:]
			r.push(tq, pkt)
			r.transfers++
			r.m.Moves++
			return
		}
	}
	r.stalls++
}

func (r *ref) push(qi int, p core.Packet) {
	r.queues[qi] = append(r.queues[qi], p)
	r.m.MaxQueue = max(r.m.MaxQueue, len(r.queues[qi]))
}

func (r *ref) deliver(p core.Packet, c int64) {
	r.m.Delivered++
	r.m.Moves++
	if r.inWindow(c) {
		lat := c - p.InjectedAt + 1
		r.m.LatencySum += lat
		r.m.Measured++
		r.m.LatencyMax = max(r.m.LatencyMax, lat)
	}
}

func (r *ref) inWindow(c int64) bool { return c >= r.start && (r.end < 0 || c < r.end) }

// stateDiff describes where the engine's state s first differs from r's, or
// returns "".
func (r *ref) stateDiff(s sim.State) string {
	if s.Cycle != r.m.Cycles || s.Classes != r.classes || len(s.Queues) != len(r.queues) || len(s.Inject) != len(r.inject) {
		return fmt.Sprintf("shape: cycle %d, %d classes, %d queues, %d nodes", s.Cycle, s.Classes, len(s.Queues), len(s.Inject))
	}
	for qi, q := range s.Queues {
		if !slices.Equal(q, r.queues[qi]) {
			return fmt.Sprintf("queue %d (node %d class %d): %+v, want %+v", qi, qi/r.classes, qi%r.classes, q, r.queues[qi])
		}
	}
	for u, p := range s.Inject {
		if q := r.inject[u]; (p == nil) != (q == nil) || p != nil && *p != *q {
			return fmt.Sprintf("injection queue of node %d: %v, want %v", u, p, q)
		}
	}
	return ""
}

// beside is what stepBeside saw: the last metrics, the engine's final
// error, and the number of cycles after which the engine had a parked head
// and a pop on deferred.
type beside struct {
	sim.Metrics
	err              error
	parked, deferred int
}

// stepBeside starts cfg's AtomicEngine and a ref on two sources from mk,
// steps them side by side and fails at the first cycle after which their
// State, Metrics, output stalls or link transfers differ, or the engine's
// ErrDeadlock disagrees with ref's idle count.
func stepBeside(t *testing.T, cfg sim.Config, mk func() (sim.TrafficSource, sim.Plan)) beside {
	t.Helper()
	cfg.Metrics = true
	e, err := sim.NewAtomicEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start(mk())
	src, plan := mk()
	r := newRef(t, cfg, src, plan)
	var res beside
	for {
		before := e.Metrics().Cycles
		done, err := e.Step()
		if e.Metrics().Cycles > before {
			r.step()
			snap := e.Obs().Latest()
			switch m := e.Metrics(); {
			case m != r.m:
				t.Fatalf("cycle %d: metrics\n got  %+v\n want %+v", before, m, r.m)
			case snap.Counter(obs.COutputStalls) != r.stalls || snap.Counter(obs.CLinkTransfers) != r.transfers:
				t.Fatalf("cycle %d: %d output stalls and %d link transfers, want %d and %d", before,
					snap.Counter(obs.COutputStalls), snap.Counter(obs.CLinkTransfers), r.stalls, r.transfers)
			}
			if d := r.stateDiff(e.State()); d != "" {
				t.Fatalf("cycle %d: %s", before, d)
			}
			if parked, deferred := e.Parked(); parked > 0 {
				res.parked++
				res.deferred += min(deferred, 1)
			}
		}
		var dl *sim.ErrDeadlock
		if deadlocked := errors.As(err, &dl); deadlocked != (r.idle >= sim.DeadlockWindow) {
			t.Fatalf("cycle %d: engine error %v, reference idle for %d cycles", before, err, r.idle)
		} else if done {
			if err != nil && !deadlocked {
				t.Fatal(err)
			}
			res.Metrics, res.err = r.m, err
			return res
		}
	}
}

// refCell is one run of the reference matrix.
type refCell struct {
	lambda float64 // 0: static, four packets per node
	cap    int
	pol    sim.Policy
	faults bool
}

func (c refCell) String() string {
	s := fmt.Sprintf("lambda%g/cap%d/%s", c.lambda, c.cap, c.pol)
	if c.lambda == 0 {
		s = fmt.Sprintf("static4/cap%d/%s", c.cap, c.pol)
	}
	if c.faults {
		s += "/faults"
	}
	return s
}

// refCells spans an idle network, a loaded one and a saturated one, at
// queue capacities where nearly every head blocks (1), some do (2) and the
// paper's (5), under every policy, with and without a link and a node that
// die and come back.
func refCells() []refCell {
	var cells []refCell
	for _, lambda := range []float64{0, 0.3, 1} {
		for _, qcap := range []int{1, 2, 5} {
			for _, pol := range []sim.Policy{sim.PolicyFirstFree, sim.PolicyRandom, sim.PolicyStaticFirst, sim.PolicyLastFree} {
				for _, faults := range []bool{false, true} {
					cells = append(cells, refCell{lambda, qcap, pol, faults})
				}
			}
		}
	}
	return cells
}

// load returns the cell's traffic for a network of n nodes: a drain of four
// packets per node, or 200 cycles of Bernoulli injection with the last 150
// measured.
func (c refCell) load(n int) func() (sim.TrafficSource, sim.Plan) {
	return func() (sim.TrafficSource, sim.Plan) {
		if c.lambda == 0 {
			return traffic.NewStaticSource(traffic.Random{Nodes: n}, n, 4, 99), sim.StaticPlan(100_000)
		}
		return traffic.NewBernoulliSource(traffic.Random{Nodes: n}, n, c.lambda, 99), sim.DynamicPlan(50, 150)
	}
}

// run steps the cell on a beside the reference.
func (c refCell) run(t *testing.T, a core.Algorithm, seed int64) beside {
	cfg := sim.Config{Algorithm: a, Seed: seed, QueueCap: c.cap, Policy: c.pol}
	if c.faults {
		// A hop budget of 2 makes misrouted packets drop as well as detour.
		cfg.Faults, cfg.HopBudget = (&fault.Plan{}).FailLink(1, 0, 5, 30).FailNode(3, 10, 40), 2
	}
	return stepBeside(t, cfg, c.load(a.Topology().Nodes()))
}

func mustAlgorithm(t *testing.T, s string) core.Algorithm {
	t.Helper()
	a, err := spec.Algorithm(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAtomicMatchesReference holds sim.AtomicEngine to ref after every cycle:
// every algorithm family of spec.AlgorithmNames (at digestSize) and the 3-D
// mesh and torus across refCells, and the 256-class ring (too many classes
// to park).
func TestAtomicMatchesReference(t *testing.T) {
	specs := [][2]string{{"mesh-3d", "mesh-adaptive:3x3x3"}, {"torus-3d", "torus-adaptive:3x3x3"}}
	for _, tmpl := range spec.AlgorithmNames() {
		family, _, _ := strings.Cut(tmpl, ":")
		specs = append(specs, [2]string{family, family + ":" + digestSize[family]})
	}
	for _, s := range specs {
		t.Run(s[0], func(t *testing.T) {
			t.Parallel()
			a := mustAlgorithm(t, s[1])
			for _, c := range refCells() {
				t.Run(c.String(), func(t *testing.T) { c.run(t, a, 12345) })
			}
		})
	}
	t.Run("many-class-ring", func(t *testing.T) {
		for _, c := range []refCell{{1, 1, sim.PolicyFirstFree, false}, {0, 2, sim.PolicyRandom, true}} {
			c.run(t, sim.NewManyClassRing(), 12345)
		}
	})
}

// atomicAlgos are the networks of the parking tests: the port-mask tests'
// families at their sizes there, plus a generated graph, whose links pair
// up but whose port numbers do not.
var atomicAlgos = [][2]string{
	{"hypercube", "hypercube-adaptive:6"}, {"hypercube-hung", "hypercube-hung:6"},
	{"mesh", "mesh-adaptive:8x8"}, {"mesh-3d", "mesh-adaptive:4x4x4"}, {"mesh-twophase", "mesh-twophase:8x8"},
	{"torus", "torus-adaptive:6x6"}, {"torus-3d", "torus-adaptive:3x3x3"},
	{"shuffle", "shuffle-adaptive:6"}, {"shuffle-eager", "shuffle-eager:6"}, {"ccc", "ccc-adaptive:3"},
	{"graph", "graph-adaptive:random-regular:n=160,k=3,seed=1"},
}

// parkCells are the fault-free cells of refCells under the policy that
// parks heads, first-free, and one that never does, random.
func parkCells() []refCell {
	return slices.DeleteFunc(refCells(), func(c refCell) bool {
		return c.faults || c.pol != sim.PolicyFirstFree && c.pol != sim.PolicyRandom
	})
}

// atomicGolden holds, per network of atomicAlgos, the sha256 over parkCells
// of each run's Metrics (and error: the capacity-1 drains of the
// shuffle-exchange, whose credited moves need two slots, end in
// ErrDeadlock), recorded on the commit before the sweep learned to skip
// empty and parked queues.
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

// TestAtomicGolden runs the engine alone, with no metrics core, and pins
// its runs to what it simulated before it parked heads.
func TestAtomicGolden(t *testing.T) {
	for _, al := range atomicAlgos {
		t.Run(al[0], func(t *testing.T) {
			t.Parallel()
			a, h := mustAlgorithm(t, al[1]), sha256.New()
			for _, c := range parkCells() {
				e, err := sim.NewAtomicEngine(sim.Config{Algorithm: a, Seed: 12345, QueueCap: c.cap, Policy: c.pol})
				if err != nil {
					t.Fatal(err)
				}
				e.Start(c.load(a.Topology().Nodes())())
				var runErr error
				for done := false; !done; {
					done, runErr = e.Step()
				}
				fmt.Fprintf(h, "%s %+v %v\n", c, e.Metrics(), runErr)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != atomicGolden[al[0]] {
				t.Errorf("metrics digest %s, recorded %s", got, atomicGolden[al[0]])
			}
		})
	}
}

// TestAtomicParkDifferential holds the parking sweep to the reference, which
// routes every head every cycle: on parkCells the engine parks heads under
// first-free, and must still agree after every cycle, the output stall
// counter included, which counts parked heads the sweep never visits. Under
// random it must never park.
func TestAtomicParkDifferential(t *testing.T) {
	for _, al := range atomicAlgos {
		t.Run(al[0], func(t *testing.T) {
			t.Parallel()
			a, parked := mustAlgorithm(t, al[1]), 0
			for _, c := range parkCells() {
				t.Run(c.String(), func(t *testing.T) {
					res := c.run(t, a, 12345)
					if c.pol != sim.PolicyFirstFree && res.parked > 0 {
						t.Fatalf("an engine that must not park had a parked head in %d cycles", res.parked)
					}
					parked += res.parked
				})
			}
			if parked == 0 {
				t.Error("no cell ever parked a head: the comparison showed nothing")
			}
		})
	}
}

// TestAtomicParkInvariant: the sweep skips a parked head on trust that every
// target is full, or popped behind it and on deferred for the next drain's
// recheck; a head skipped wrongly would stay where the reference moves it.
// Saturated capacity-1 runs must park heads and leave pops on deferred.
// Then engines that must not park never do, blocked heads or not.
func TestAtomicParkInvariant(t *testing.T) {
	for _, al := range atomicAlgos {
		t.Run(al[0], func(t *testing.T) {
			t.Parallel()
			a := mustAlgorithm(t, al[1])
			for _, c := range []refCell{{lambda: 1, cap: 1}, {lambda: 0.3, cap: 2}, {cap: 1}} {
				if res := c.run(t, a, 7); c.lambda == 1 && (res.parked == 0 || res.deferred == 0) {
					t.Errorf("%s: a head parked after %d cycles, with a pop on deferred after %d; a saturated capacity-1 run must do both",
						c, res.parked, res.deferred)
				}
			}
		})
	}

	for name, cfg := range map[string]sim.Config{
		"random policy": {Algorithm: core.NewHypercubeAdaptive(6), Policy: sim.PolicyRandom},
		"fault plan":    {Algorithm: core.NewHypercubeAdaptive(6), Faults: (&fault.Plan{}).FailRandomLinks(0.05, 1, 0, fault.Forever)},
		"256 classes":   {Algorithm: sim.NewManyClassRing()},
	} {
		cfg.Seed, cfg.QueueCap = 7, 1
		switch res := stepBeside(t, cfg, refCell{lambda: 1}.load(cfg.Algorithm.Topology().Nodes())); {
		case res.err != nil:
			t.Fatalf("%s: %v", name, res.err)
		case res.parked > 0:
			t.Fatalf("%s: a queue was parked after %d cycles", name, res.parked)
		case res.Delivered == 0 || res.Attempts == res.Successes:
			t.Errorf("%s: delivered %d, %d of %d injections accepted: the run never blocked", name, res.Delivered, res.Successes, res.Attempts)
		}
	}
}

// TestAtomicParkFaultsOff: with a fault plan a head's admissible set changes
// without any pop (links die and revive), so the engine must not park.
func TestAtomicParkFaultsOff(t *testing.T) {
	for _, a := range []core.Algorithm{core.NewHypercubeAdaptive(6), core.NewTorusAdaptive(6, 6)} {
		plan := (&fault.Plan{}).FailRandomLinks(0.05, 1, 0, fault.Forever).FailNode(9, 40, 60)
		cfg := sim.Config{Algorithm: a, Seed: 12345, QueueCap: 2, Faults: plan}
		res := stepBeside(t, cfg, refCell{lambda: 1}.load(a.Topology().Nodes()))
		if res.parked > 0 {
			t.Fatalf("%s: a head was parked under faults after %d cycles", a.Name(), res.parked)
		}
		if res.Dropped == 0 {
			t.Errorf("%s: the node outage dropped nothing: the plan did not bite", a.Name())
		}
	}
}

// TestAtomicDeferredWake steps a one-way ring scripted so that a head parks
// behind the sweep and its target is, or is not, refilled by the next
// injection drain before it wakes. Cycle 0 injects head A at node 1 (for
// node 3) and B at node 2 (for node 4). In cycle 1, A blocks on B's queue
// and parks; B moves on, a pop from the full queue A waits on, behind the
// sweep, so that queue goes on deferred. In cycle 2 node 2 injects C and A
// stays parked, its stall charged again, or nothing and A moves.
func TestAtomicDeferredWake(t *testing.T) {
	for _, refill := range []bool{false, true} {
		t.Run(fmt.Sprintf("refill=%v", refill), func(t *testing.T) {
			script := scriptSource{{0, 1, 3}, {0, 2, 4}}
			if refill {
				script = append(script, [3]int32{2, 2, 5})
			}
			cfg := sim.Config{Algorithm: newOneWayRing(6), Seed: 1, QueueCap: 1}
			res := stepBeside(t, cfg, func() (sim.TrafficSource, sim.Plan) { return script, sim.DynamicPlan(0, 10) })
			if res.parked == 0 || res.deferred == 0 {
				t.Errorf("a head parked after %d cycles, with a pop on deferred after %d; want both", res.parked, res.deferred)
			}
		})
	}
}

// TestAtomicDynamicRun runs the atomic engine's dynamic path beside the
// reference past a warm-up, on the shuffle-exchange (credited moves) and the
// torus.
func TestAtomicDynamicRun(t *testing.T) {
	for _, a := range []core.Algorithm{core.NewShuffleExchangeAdaptive(5), core.NewTorusAdaptive(4, 4)} {
		n := a.Topology().Nodes()
		res := stepBeside(t, sim.Config{Algorithm: a, Seed: 2, QueueCap: 5}, func() (sim.TrafficSource, sim.Plan) {
			return traffic.NewBernoulliSource(traffic.Random{Nodes: n}, n, 0.5, 3), sim.DynamicPlan(100, 400)
		})
		if res.Delivered == 0 || res.Measured == 0 {
			t.Errorf("%s: nothing measured: %+v", a.Name(), res.Metrics)
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
