package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// mkTrafficSource builds one of the traffic models over the given node
// count; the names match the spec grammar's traffic kinds.
func mkTrafficSource(t *testing.T, kind string, nodes int, seed int64) TrafficSource {
	t.Helper()
	pat := traffic.Random{Nodes: nodes}
	switch kind {
	case "static":
		return traffic.NewStaticSource(pat, nodes, 3, seed)
	case "bernoulli-1.0":
		return traffic.NewBernoulliSource(pat, nodes, 1.0, seed)
	case "bernoulli-0.3":
		return traffic.NewBernoulliSource(pat, nodes, 0.3, seed)
	case "mmpp":
		return traffic.NewMMPP(pat, nodes, 0.9, 0.05, 0.1, 0.1, seed)
	case "onoff":
		return traffic.NewOnOff(pat, nodes, 0.9, 0.1, 64, 32, seed)
	default:
		t.Fatalf("unknown source kind %q", kind)
		return nil
	}
}

// scalarOnly hides a source's FillCycle, so the engines inject through the
// per-node Wants/Take path: the reference the batched path is held to.
type scalarOnly struct{ TrafficSource }

// kernelOf returns the kernel a simulator embeds.
func kernelOf(s Simulator) *kernel {
	switch e := s.(type) {
	case *Engine:
		return &e.kernel
	case *AtomicEngine:
		return &e.kernel
	}
	panic(fmt.Sprintf("sim: unknown simulator %T", s))
}

// runInjecting runs src on e to the end of plan and fails tb unless the
// run took the batched injection path exactly when batched is set.
func runInjecting(tb testing.TB, e Simulator, src TrafficSource, plan Plan, batched bool) Metrics {
	tb.Helper()
	e.Start(src, plan)
	if got := kernelOf(e).rs.batch != nil; got != batched {
		tb.Fatalf("batched injection path taken = %v, want %v", got, batched)
	}
	for done := false; !done; done, _ = e.Step() {
	}
	res, err := e.Result()
	if err != nil {
		tb.Fatal(err)
	}
	return res.Metrics
}

// TestBatchInjectParity pins the tentpole contract: the batched injection
// path (BatchSource.FillCycle) must produce bit-identical Metrics to the
// scalar Wants/Take path, for every source that implements it, on both
// engines and across worker counts.
func TestBatchInjectParity(t *testing.T) {
	kinds := []string{"static", "bernoulli-1.0", "bernoulli-0.3", "mmpp", "onoff"}
	engines := []struct {
		kind    string
		workers []int
	}{
		{"buffered", []int{1, 2, 7}},
		{"atomic", []int{1}},
	}
	for _, srcKind := range kinds {
		for _, eng := range engines {
			for _, workers := range eng.workers {
				name := fmt.Sprintf("%s/%s/workers=%d", srcKind, eng.kind, workers)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					run := func(noBatch bool) Metrics {
						a := core.NewHypercubeAdaptive(6)
						nodes := a.Topology().Nodes()
						e, err := NewSimulator(eng.kind, Config{Algorithm: a, Seed: 7, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						src := mkTrafficSource(t, srcKind, nodes, 99)
						if noBatch {
							src = scalarOnly{src}
						}
						plan := DynamicPlan(50, 200)
						if srcKind == "static" {
							plan = StaticPlan(1_000_000)
						}
						return runInjecting(t, e, src, plan, !noBatch)
					}
					batch, scalar := run(false), run(true)
					if batch != scalar {
						t.Errorf("batched path diverged from scalar:\n batch  %+v\n scalar %+v", batch, scalar)
					}
				})
			}
		}
	}
}

// TestBatchParityAcrossEngines cross-checks that for the atomic-model
// semantics shared by nothing (each engine has its own), the batch toggle
// changes nothing per engine — and that recording through a RecordingSource
// on the batched path records exactly the injections the run performed.
func TestBatchRecordingCounts(t *testing.T) {
	a := core.NewHypercubeAdaptive(6)
	nodes := a.Topology().Nodes()
	e, err := NewEngine(Config{Algorithm: a, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	inner := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.6, 99)
	rec := &traffic.RecordingSource{Inner: inner, Cap: 1 << 16}
	m, err := runDynamic(e, rec, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TotalTaken() != m.Injected {
		t.Errorf("recorded %d injections, engine injected %d", rec.TotalTaken(), m.Injected)
	}
	if m.Injected == 0 {
		t.Error("no injections recorded")
	}
}
