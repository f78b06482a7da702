package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// portMaskAlgos are the algorithms the encoding tests sweep, at sizes
// small enough to keep the matrix fast but large enough for wrap classes,
// degenerate shuffle cycles, and multi-dimension adaptivity.
var portMaskAlgos = []struct {
	name string
	mk   func() core.Algorithm
}{
	{"hypercube", func() core.Algorithm { return core.NewHypercubeAdaptive(6) }},
	{"hypercube-hung", func() core.Algorithm { return core.NewHypercubeHung(6) }},
	{"mesh", func() core.Algorithm { return core.NewMeshAdaptive(8, 8) }},
	{"mesh-3d", func() core.Algorithm { return core.NewMeshAdaptive(4, 4, 4) }},
	{"mesh-twophase", func() core.Algorithm { return core.NewMeshTwoPhase(8, 8) }},
	{"torus", func() core.Algorithm { return core.NewTorusAdaptive(6, 6) }},
	{"torus-3d", func() core.Algorithm { return core.NewTorusAdaptive(3, 3, 3) }},
	{"shuffle", func() core.Algorithm { return core.NewShuffleExchangeAdaptive(6) }},
	{"shuffle-eager", func() core.Algorithm { return core.NewShuffleExchangeEager(6) }},
	{"ccc", func() core.Algorithm { return core.NewCCCAdaptive(3) }},
}

// viaMoves routes by its algorithm's masks rebuilt from the algorithm's
// Move listing (core.Candidates, what the QDG verifier certifies), all in
// the per-port encoding. The engines must run it exactly as they run the
// algorithm itself: then the listing states the moves the engines take,
// and the engines read the grouped and the per-port encodings alike.
type viaMoves struct{ core.Algorithm }

func (v viaMoves) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	*pm = core.PortMasks{PerPort: true}
	plain := true
	for _, m := range core.Candidates(v.Algorithm, node, class, work, dst, nil) {
		switch {
		case m.Deliver:
			pm.Deliver = true
			return false
		case m.Port == core.PortInternal:
			pm.IntClass[pm.Internal], pm.IntWork[pm.Internal] = m.Class, m.Work
			pm.Internal++
			plain = false
		case m.Kind == core.Dynamic:
			pm.Dyn |= 1 << uint(m.Port)
			pm.DynClass, pm.DynWork = m.Class, m.Work
		default:
			pm.StaticMask |= 1 << uint(m.Port)
			pm.PortClass[m.Port], pm.Work = m.Class, m.Work
			if m.Credit > 0 {
				pm.Credit = m.Credit
				plain = false
			}
		}
	}
	return plain
}

// runToggled runs one (engine, algorithm, traffic) combination on the
// algorithm or, with via, on its viaMoves twin, and returns the metrics.
func runToggled(t *testing.T, atomic bool, mk func() core.Algorithm, via bool,
	inject string, faults *fault.Plan, workers int) Metrics {
	t.Helper()
	a, kind := mk(), "buffered"
	if via {
		a = viaMoves{a}
	}
	if atomic {
		kind = "atomic"
	}
	e, err := NewSimulator(kind, Config{Algorithm: a, Seed: 12345, Workers: workers, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	nodes := a.Topology().Nodes()
	var m Metrics
	if inject == "static" {
		m, err = runStatic(e, traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 3, 99), 1_000_000)
	} else {
		m, err = runDynamic(e, traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.2, 99), 50, 150)
	}
	if err != nil {
		t.Fatalf("via moves=%v: %v", via, err)
	}
	return m
}

// TestPortMaskToggleDeterminism pins the one representation on the
// buffered engine: for every algorithm, metrics are bit-identical whether
// the engine reads the algorithm's own masks or the ones rebuilt from its
// Move listing, under both injection models and across worker counts.
// Combined with the core package's reachable-state cross-check against the
// reference statements this shows the engines route move by move as the
// paper's rules say.
func TestPortMaskToggleDeterminism(t *testing.T) {
	for _, al := range portMaskAlgos {
		for _, inject := range []string{"static", "dynamic"} {
			al, inject := al, inject
			t.Run(fmt.Sprintf("%s/%s", al.name, inject), func(t *testing.T) {
				t.Parallel()
				want := runToggled(t, false, al.mk, false, inject, nil, 1)
				for _, workers := range []int{1, 2} {
					if workers > 1 && al.mk().Props().Credits {
						continue // Config refuses credited algorithms on several workers
					}
					if got := runToggled(t, false, al.mk, true, inject, nil, workers); got != want {
						t.Errorf("workers=%d via moves diverged:\n got  %+v\n want %+v", workers, got, want)
					}
				}
			})
		}
	}
}

// TestAtomicPortMaskToggleDeterminism is the atomic-engine counterpart:
// Route(q) must take the same decisions on either encoding.
func TestAtomicPortMaskToggleDeterminism(t *testing.T) {
	for _, al := range portMaskAlgos {
		for _, inject := range []string{"static", "dynamic"} {
			al, inject := al, inject
			t.Run(fmt.Sprintf("%s/%s", al.name, inject), func(t *testing.T) {
				t.Parallel()
				want := runToggled(t, true, al.mk, false, inject, nil, 0)
				if got := runToggled(t, true, al.mk, true, inject, nil, 0); got != want {
					t.Errorf("via moves diverged:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}

// TestPortMaskFaultDeterminism compares the encodings under an active fault
// plan: dead-link masking and the hashed misroute pick must behave
// identically on either. Both engines, both mesh and torus (the per-port
// encoding) plus the hypercube (the grouped one).
func TestPortMaskFaultDeterminism(t *testing.T) {
	plan := func() *fault.Plan {
		p := &fault.Plan{}
		p.FailRandomLinks(0.05, 1, 0, fault.Forever)
		p.FailLink(3, 2, 3, 40)
		p.FailNode(9, 2, 100)
		return p
	}
	algos := []struct {
		name string
		mk   func() core.Algorithm
	}{
		{"hypercube", func() core.Algorithm { return core.NewHypercubeAdaptive(6) }},
		{"mesh", func() core.Algorithm { return core.NewMeshAdaptive(8, 8) }},
		{"torus", func() core.Algorithm { return core.NewTorusAdaptive(6, 6) }},
	}
	for _, al := range algos {
		for _, engine := range []string{"buffered", "atomic"} {
			al, engine := al, engine
			t.Run(al.name+"/"+engine, func(t *testing.T) {
				t.Parallel()
				atomic := engine == "atomic"
				workers := 2
				if atomic {
					workers = 0
				}
				want := runToggled(t, atomic, al.mk, false, "dynamic", plan(), workers)
				if got := runToggled(t, atomic, al.mk, true, "dynamic", plan(), workers); got != want {
					t.Errorf("via moves diverged under faults:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}

// rook is the rook's graph K_a x K_b, the two-dimensional HyperX: node
// (i, j) = i*b+j links to every other node of its row (ports 0..b-2) and of
// its column (ports b-1..a+b-3). Two nodes differing in both coordinates
// are two hops apart by two minimal paths.
type rook struct{ a, b int }

func (g rook) Name() string { return fmt.Sprintf("rook(%dx%d)", g.a, g.b) }
func (g rook) Nodes() int   { return g.a * g.b }
func (g rook) Ports() int   { return g.a + g.b - 2 }
func (g rook) Neighbor(u, p int) int {
	i, j := u/g.b, u%g.b
	if p < g.b-1 { // row: the p-th other column
		if p >= j {
			p++
		}
		return i*g.b + p
	}
	if p -= g.b - 1; p >= i {
		p++
	}
	return p*g.b + j
}
func (g rook) ReversePort(u, p int) int { return g.PortTo(g.Neighbor(u, p), u) }
func (g rook) PortTo(u, v int) int {
	iu, ju, iv, jv := u/g.b, u%g.b, v/g.b, v%g.b
	switch {
	case u == v || iu != iv && ju != jv:
		return topology.None
	case iu == iv && jv > ju:
		return jv - 1
	case iu == iv:
		return jv
	case iv > iu:
		return g.b - 1 + iv - 1
	}
	return g.b - 1 + iv
}
func (g rook) Distance(u, v int) int {
	d := 0
	if u/g.b != v/g.b {
		d++
	}
	if u%g.b != v%g.b {
		d++
	}
	return d
}

// rookMinimal is minimal hop-class routing on a rook's graph from its
// closed-form distance, port by port: the brute-force reference
// graph-adaptive's distance-table masks are held to.
type rookMinimal struct {
	core.Derived
	g    rook
	wide *bool // set once a mask needs a port above 31
}

func (r *rookMinimal) Name() string                                    { return "rook-minimal" }
func (r *rookMinimal) Topology() topology.Topology                     { return r.g }
func (r *rookMinimal) NumClasses() int                                 { return 3 }
func (r *rookMinimal) ClassName(c core.QueueClass) string              { return fmt.Sprintf("hop%d", c) }
func (r *rookMinimal) Props() core.Props                               { return core.Props{Minimal: true, FullyAdaptive: true} }
func (r *rookMinimal) MaxHops(src, dst int32) int                      { return r.g.Distance(int(src), int(dst)) }
func (r *rookMinimal) Inject(src, dst int32) (core.QueueClass, uint32) { return 0, 0 }

func (r *rookMinimal) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	*pm = core.PortMasks{PerPort: true}
	d := r.g.Distance(int(node), int(dst))
	for p := 0; p < r.g.Ports(); p++ {
		if r.g.Distance(r.g.Neighbor(int(node), p), int(dst)) == d-1 {
			pm.StaticMask |= 1 << uint(p)
			pm.PortClass[p] = class + 1
		}
	}
	if pm.StaticMask>>32 != 0 {
		*r.wide = true
	}
	return true
}

// TestWideNodesRouteThroughMasks runs graph-adaptive on rook's graphs whose
// nodes have 33 and 64 ports, beyond a 32-bit word, on both engines, under
// three policies and, at first-free, under a fault plan (its live-port
// masks need the upper half of the word too), and holds the metrics to the
// brute-force reference's.
func TestWideNodesRouteThroughMasks(t *testing.T) {
	for _, g := range []rook{{a: 15, b: 20}, {a: 33, b: 33}} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			t.Parallel()
			ga, err := core.NewGraphAdaptive(g)
			if err != nil {
				t.Fatal(err)
			}
			wide := false
			ref := &rookMinimal{g: g, wide: &wide}
			ref.Derived = core.Derive(ref)
			for _, engine := range []string{"buffered", "atomic"} {
				for _, c := range []struct {
					pol    Policy
					faults bool
				}{{PolicyFirstFree, false}, {PolicyRandom, false}, {PolicyLastFree, false}, {PolicyFirstFree, true}} {
					run := func(a core.Algorithm) Metrics {
						cfg := Config{Algorithm: a, Seed: 1, QueueCap: 2, Policy: c.pol}
						if c.faults {
							cfg.Faults = (&fault.Plan{}).FailRandomLinks(0.05, 1, 0, fault.Forever)
						}
						e, err := NewSimulator(engine, cfg)
						if err != nil {
							t.Fatal(err)
						}
						n := g.Nodes()
						m, err := runDynamic(e, traffic.NewBernoulliSource(traffic.Random{Nodes: n}, n, 0.5, 99), 20, 60)
						if err != nil {
							t.Fatal(err)
						}
						return m
					}
					if got, want := run(ga), run(ref); got != want || got.Delivered == 0 {
						t.Errorf("%s/%s faults=%v: graph-adaptive %+v, reference %+v", engine, c.pol, c.faults, got, want)
					}
				}
			}
			if !wide {
				t.Error("no mask used a port above 31: the test did not reach the upper half of the word")
			}
		})
	}
}
