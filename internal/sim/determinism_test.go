package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestDeterminismAcrossWorkers pins the engine's bit-determinism contract:
// for a fixed seed, every Metrics field must be identical regardless of the
// worker count, across topologies, injection models, and both switching
// modes (store-and-forward and cut-through). The worker counts are chosen to exercise sequential
// mode, an even shard split, and a ragged split (7 workers over a
// power-of-two node count).
func TestDeterminismAcrossWorkers(t *testing.T) {
	algos := []struct {
		name string
		mk   func() core.Algorithm
	}{
		{"hypercube", func() core.Algorithm { return core.NewHypercubeAdaptive(6) }},
		{"mesh", func() core.Algorithm { return core.NewMeshAdaptive(8, 8) }},
		{"torus", func() core.Algorithm { return core.NewTorusAdaptive(8, 8) }},
	}
	variants := []struct {
		name string
		ct   bool
	}{
		{"plain", false},
		{"cutthrough", true},
	}
	for _, al := range algos {
		for _, inject := range []string{"static", "dynamic"} {
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/%s/%s", al.name, inject, v.name), func(t *testing.T) {
					t.Parallel()
					run := func(workers int) Metrics {
						a := al.mk()
						nodes := a.Topology().Nodes()
						cfg := Config{
							Algorithm:  a,
							Seed:       12345,
							Workers:    workers,
							CutThrough: v.ct,
						}
						e, err := NewEngine(cfg)
						if err != nil {
							t.Fatal(err)
						}
						var m Metrics
						if inject == "static" {
							src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 3, 99)
							m, err = runStatic(e, src, 1_000_000)
						} else {
							src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.5, 99)
							m, err = runDynamic(e, src, 50, 150)
						}
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						return m
					}
					want := run(1)
					for _, w := range []int{2, 7} {
						if got := run(w); got != want {
							t.Errorf("workers=%d diverged from workers=1:\n got  %+v\n want %+v", w, got, want)
						}
					}
				})
			}
		}
	}
}

// TestDeterminismShardsAndPipelines pins the shard-layout independence of
// the buffered engine: every Metrics field must be bit-identical to the
// sequential run for any worker count, on the fused pipeline and on the
// split one PhaseProf selects. The hotspot pattern concentrates queue
// population on one node, so the shards carry very uneven work.
func TestDeterminismShardsAndPipelines(t *testing.T) {
	run := func(workers int, prof bool) Metrics {
		a := core.NewHypercubeAdaptive(6)
		nodes := a.Topology().Nodes()
		e, err := NewEngine(Config{Algorithm: a, Seed: 12345, Workers: workers, PhaseProf: prof})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewBernoulliSource(traffic.Hotspot{Nodes: nodes, Hot: 3, Fraction: 0.5}, nodes, 0.5, 99)
		m, err := runDynamic(e, src, 50, 150)
		if err != nil {
			t.Fatalf("workers=%d phaseprof=%v: %v", workers, prof, err)
		}
		// The fused pipeline times no phase of its own; the split one times
		// phases (a) and (b) separately.
		if pt := e.PhaseTimes(); (pt.PhaseANs > 0 && pt.PhaseBNs > 0) != prof {
			t.Fatalf("workers=%d phaseprof=%v: phase times %+v", workers, prof, pt)
		}
		return m
	}
	want := run(1, false)
	for _, workers := range []int{2, 7} {
		for _, prof := range []bool{false, true} {
			if got := run(workers, prof); got != want {
				t.Errorf("workers=%d phaseprof=%v diverged:\n got  %+v\n want %+v", workers, prof, got, want)
			}
		}
	}
}

// TestDeterminismCanonicalSnapshot extends the contract to the metrics core:
// the Canonical() view of the final snapshot must be identical across worker
// counts, so observability artifacts diff clean in CI.
func TestDeterminismCanonicalSnapshot(t *testing.T) {
	run := func(workers int) [obs.NumCounters]int64 {
		a := core.NewHypercubeAdaptive(6)
		nodes := a.Topology().Nodes()
		e, err := NewEngine(Config{Algorithm: a, Seed: 7, Workers: workers, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.5, 99)
		if _, err := runDynamic(e, src, 50, 150); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := e.Obs().Latest().Canonical()
		return snap.Counters
	}
	want := run(1)
	for _, workers := range []int{2, 7} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: canonical counters diverged:\n got  %v\n want %v", workers, got, want)
		}
	}
}

// manyClassRing is a hop-ordered structured-buffer-pool scheme on a 6-node
// ring that declares the maximum representable number of queue classes
// (QueueClass is uint8, so 256). Packets are injected into class 250 and
// ascend one class per hop, and every other hop is dynamic, so its link
// buffer is the shared dynamic buffer at index NumClasses == 256. The
// engine's per-worker scratch must therefore be sized from the algorithm,
// not a fixed array; a fixed [256] lens table overflows here.
type manyClassRing struct {
	core.Derived
	torus *topology.Torus
}

func newManyClassRing() *manyClassRing {
	r := &manyClassRing{torus: topology.NewTorus(6)}
	r.Derived = core.Derive(r)
	return r
}

func (r *manyClassRing) Name() string                       { return "many-class-ring" }
func (r *manyClassRing) Topology() topology.Topology        { return r.torus }
func (r *manyClassRing) NumClasses() int                    { return 256 }
func (r *manyClassRing) ClassName(c core.QueueClass) string { return fmt.Sprintf("hop%d", c) }
func (r *manyClassRing) Props() core.Props                  { return core.Props{} }
func (r *manyClassRing) Inject(src, dst int32) (core.QueueClass, uint32) {
	return 250, 0
}

func (r *manyClassRing) MaxHops(src, dst int32) int {
	return (int(dst) - int(src) + r.torus.Nodes()) % r.torus.Nodes()
}

func (r *manyClassRing) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	// Hop-ordered classes keep the static QDG acyclic; the odd hops are
	// dynamic purely to route through buffer class 256.
	*pm = core.PortMasks{PerPort: true, StaticMask: 1, DynClass: class + 1}
	pm.PortClass[0] = class + 1
	if class&1 == 1 {
		pm.StaticMask, pm.Dyn = 0, 1
	}
	return true
}

// TestEngineManyClasses regression-tests the worker-scratch sizing: with 256
// queue classes the dynamic link buffer has index 256, one past what a fixed
// 256-entry scratch table can address. The run must complete (not panic) and
// deliver every packet.
func TestEngineManyClasses(t *testing.T) {
	a := newManyClassRing()
	for _, workers := range []int{1, 2} {
		e, err := NewEngine(Config{Algorithm: a, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Random{Nodes: 6}, 6, 4, 11)
		m, err := runStatic(e, src, 100_000)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.Delivered != m.Injected || m.InFlight != 0 {
			t.Errorf("workers=%d: delivered %d of %d, in-flight %d", workers, m.Delivered, m.Injected, m.InFlight)
		}
		if m.DynamicMoves == 0 {
			t.Errorf("workers=%d: no dynamic moves; the test did not exercise buffer class 256", workers)
		}
	}
}
