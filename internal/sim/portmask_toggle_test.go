package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// portMaskAlgos are the PortMaskRouter implementors the toggle tests sweep,
// at sizes small enough to keep the matrix fast but large enough for wrap
// classes, degenerate shuffle cycles, and multi-dimension adaptivity.
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

// maskless hides the algorithm's PortMask method, so the engines route
// every decision through Candidates: the reference path a PortMaskRouter
// twin is held to.
type maskless struct{ core.Algorithm }

// runToggled runs one (engine, algorithm, traffic) combination on the
// port-mask path or, with disable, on its maskless twin, and returns the
// metrics.
func runToggled(t *testing.T, atomic bool, mk func() core.Algorithm, disable bool,
	inject string, faults *fault.Plan, workers int) Metrics {
	t.Helper()
	a, kind := mk(), "buffered"
	if disable {
		a = maskless{a}
	}
	if atomic {
		kind = "atomic"
	}
	e, err := NewSimulator(kind, Config{Algorithm: a, Seed: 12345, Workers: workers, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if disable && kernelOf(e).pmr != nil {
		t.Fatalf("%s: the maskless twin took the port-mask path", a.Name())
	}
	nodes := a.Topology().Nodes()
	var m Metrics
	if inject == "static" {
		m, err = runStatic(e, traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 3, 99), 1_000_000)
	} else {
		m, err = runDynamic(e, traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.2, 99), 50, 150)
	}
	if err != nil {
		t.Fatalf("mask-disabled=%v: %v", disable, err)
	}
	return m
}

// TestPortMaskToggleDeterminism pins the fast path's central contract on the
// buffered engine: for every PortMaskRouter algorithm, metrics are
// bit-identical with the mask path forced on and off, under both injection
// models and across worker counts. Combined with the core package's
// reachable-state cross-check this shows the engines route move-by-move
// identically through either path.
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
						t.Errorf("workers=%d mask-off diverged:\n got  %+v\n want %+v", workers, got, want)
					}
				}
			})
		}
	}
}

// TestAtomicPortMaskToggleDeterminism is the atomic-engine counterpart: the
// new inline bitmask scan must reproduce the Candidates-based Route(q)
// decision (FirstFree over ascending ports) bit-identically.
func TestAtomicPortMaskToggleDeterminism(t *testing.T) {
	for _, al := range portMaskAlgos {
		for _, inject := range []string{"static", "dynamic"} {
			al, inject := al, inject
			t.Run(fmt.Sprintf("%s/%s", al.name, inject), func(t *testing.T) {
				t.Parallel()
				want := runToggled(t, true, al.mk, false, inject, nil, 0)
				if got := runToggled(t, true, al.mk, true, inject, nil, 0); got != want {
					t.Errorf("mask-off diverged:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}

// TestPortMaskFaultDeterminism toggles the mask path under an active fault
// plan: dead-link masking and the hashed misroute pick must behave
// identically whether the candidate set is a mask or a Move slice. Both
// engines, both mesh and torus (the per-port encoding) plus the hypercube
// (the grouped one).
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
					t.Errorf("mask-off diverged under faults:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}

// halfMaskHypercube wraps the adaptive hypercube but declines the port-mask
// fast path at every odd node, exercising the per-packet (not per-run)
// fallback documented on core.PortMaskRouter: the engines must route the
// declined packets through Candidates within the same cycle and produce
// metrics identical to a run with the mask path disabled entirely.
type halfMaskHypercube struct {
	*core.MeshAdaptive
}

func (h halfMaskHypercube) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	if node&1 == 1 {
		return false
	}
	return h.MeshAdaptive.PortMask(node, class, work, dst, pm)
}

// TestPortMaskPartialImplementorFallback pins the per-state fallback on both
// engines with a partial implementor that declines half its states.
func TestPortMaskPartialImplementorFallback(t *testing.T) {
	mk := func() core.Algorithm { return halfMaskHypercube{core.NewHypercubeAdaptive(6)} }
	for _, engine := range []string{"buffered", "atomic"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			atomic := engine == "atomic"
			workers := 2
			if atomic {
				workers = 0
			}
			for _, inject := range []string{"static", "dynamic"} {
				want := runToggled(t, atomic, mk, true, inject, nil, workers)
				if got := runToggled(t, atomic, mk, false, inject, nil, workers); got != want {
					t.Errorf("%s: partial implementor diverged from mask-off:\n got  %+v\n want %+v", inject, got, want)
				}
			}
		})
	}
}

// completeGraph is the complete digraph on n nodes: port p of node u leads
// to the p-th other node in ascending order, so every node has n-1 ports.
type completeGraph struct{ n int }

func (g completeGraph) Name() string { return fmt.Sprintf("complete(%d)", g.n) }
func (g completeGraph) Nodes() int   { return g.n }
func (g completeGraph) Ports() int   { return g.n - 1 }
func (g completeGraph) Neighbor(u, p int) int {
	if p >= u {
		return p + 1
	}
	return p
}
func (g completeGraph) ReversePort(u, p int) int { return g.PortTo(g.Neighbor(u, p), u) }
func (g completeGraph) PortTo(u, v int) int {
	switch {
	case u == v:
		return topology.None
	case v > u:
		return v - 1
	}
	return v
}
func (g completeGraph) Distance(a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

// wideGraphAdaptive is graph-adaptive routing that fails the test if an
// engine ever asks it for a port mask: a PortMasks word holds 32 ports.
type wideGraphAdaptive struct {
	*core.GraphAdaptive
	t *testing.T
}

func (a wideGraphAdaptive) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	a.t.Errorf("PortMask called at node %d of a %d-port network", node, a.Topology().Ports())
	return false
}

// TestWideNodesSkipPortMask runs both engines to full delivery on a
// 34-node complete graph, whose 33 ports do not fit a 32-bit mask: the
// kernel must route every decision through Candidates.
func TestWideNodesSkipPortMask(t *testing.T) {
	g, err := core.NewGraphAdaptive(completeGraph{n: 34})
	if err != nil {
		t.Fatal(err)
	}
	a := wideGraphAdaptive{g, t}
	for _, engine := range []string{"buffered", "atomic"} {
		e, err := NewSimulator(engine, Config{Algorithm: a, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Random{Nodes: 34}, 34, 4, 99)
		m, err := runStatic(e, src, 1_000_000)
		if err != nil || m.Delivered != 4*34 {
			t.Errorf("%s: delivered %d of %d: %v", engine, m.Delivered, 4*34, err)
		}
	}
}
