package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineBenchAppendReplaces pins the trajectory-file semantics: appends
// with a fresh label accumulate oldest-first, re-appending an existing label
// replaces that run in place, and the file round-trips through JSON.
func TestEngineBenchAppendReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	mk := func(label string, cps float64) EngineBenchRun {
		return EngineBenchRun{
			Label: label, Date: "2026-08-06", NumCPU: 1, GoMaxProcs: 1,
			Results: []EngineBenchResult{{Dims: 8, Nodes: 256, Workers: 1, Cycles: 500, CyclesPerSec: cps}},
		}
	}
	for _, r := range []EngineBenchRun{mk("seed", 100), mk("opt", 150), mk("opt", 200)} {
		if err := AppendEngineBench(path, r); err != nil {
			t.Fatal(err)
		}
	}
	f, err := LoadEngineBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2 {
		t.Fatalf("got %d runs, want 2 (same-label append must replace)", len(f.Runs))
	}
	if f.Runs[0].Label != "seed" || f.Runs[1].Label != "opt" {
		t.Fatalf("unexpected run order: %q, %q", f.Runs[0].Label, f.Runs[1].Label)
	}
	if got := f.Runs[1].Results[0].CyclesPerSec; got != 200 {
		t.Fatalf("replaced run has cycles/s %v, want 200", got)
	}
	if f.Benchmark == "" {
		t.Fatal("benchmark workload description missing")
	}
}

// TestEngineBenchLoadMissing checks that a missing file loads as an empty,
// properly-labeled trajectory (the first revision bootstraps the artifact).
func TestEngineBenchLoadMissing(t *testing.T) {
	f, err := LoadEngineBench(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 0 || f.Benchmark == "" {
		t.Fatalf("unexpected empty-load result: %+v", f)
	}
}

// TestEngineBenchFormatSpeedup checks the speedup column against a baseline.
func TestEngineBenchFormatSpeedup(t *testing.T) {
	base := EngineBenchRun{Results: []EngineBenchResult{{Dims: 8, Workers: 1, CyclesPerSec: 100}}}
	run := EngineBenchRun{Label: "x", Results: []EngineBenchResult{{Dims: 8, Workers: 1, CyclesPerSec: 250}}}
	out := FormatEngineBench(run, &base)
	if !strings.Contains(out, "2.50x") {
		t.Fatalf("speedup column missing from:\n%s", out)
	}
}

// TestEngineBenchTrafficCells smoke-runs one tiny cell per traffic model and
// checks the before/after matching semantics: NoBatch is excluded from the
// cell key (so a -nobatch baseline pairs with the fast-path run) while the
// traffic model is part of it.
func TestEngineBenchTrafficCells(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps four simulations")
	}
	for _, model := range []string{"", "mmpp", "trace", "perm"} {
		cfg := EngineBenchConfig{
			Dims: []int{4}, Workers: []int{1}, Warmup: 10, Measure: 40,
			Repeat: 1, Traffic: model,
		}
		run, err := RunEngineBench("t", cfg)
		if err != nil {
			t.Fatalf("traffic=%q: %v", model, err)
		}
		r := run.Results[0]
		if r.Cycles != 50 || r.CyclesPerSec <= 0 {
			t.Errorf("traffic=%q: implausible cell %+v", model, r)
		}
		if r.Delivered == 0 {
			t.Errorf("traffic=%q: no deliveries", model)
		}
	}

	fast := EngineBenchResult{Dims: 4, Workers: 1}
	slow := EngineBenchRun{Results: []EngineBenchResult{{Dims: 4, Workers: 1, NoBatch: true, CyclesPerSec: 1}}}
	if matchCell(&slow, &fast) == nil {
		t.Error("NoBatch baseline cell must match the fast-path cell")
	}
	mmpp := EngineBenchResult{Dims: 4, Workers: 1, Traffic: "mmpp"}
	if matchCell(&slow, &mmpp) != nil {
		t.Error("different traffic models must not match")
	}
	bern := EngineBenchResult{Dims: 4, Workers: 1, Traffic: "bernoulli"}
	if matchCell(&slow, &bern) == nil {
		t.Error("explicit \"bernoulli\" must match a legacy unlabeled cell")
	}
}

// TestBenchPattern checks that both modes draw destinations from the named
// spec.Pattern: a permutation delivers differently from random traffic, the
// record names it (and leaves "random" out, as older records do), the phase
// table carries its moves column, and an unknown name is an error.
func TestBenchPattern(t *testing.T) {
	delivered := map[string]int64{}
	for _, pat := range []string{"", "complement"} {
		run, err := RunEngineBench("t", EngineBenchConfig{
			Dims: []int{4}, Workers: []int{1}, Warmup: 10, Measure: 40, Repeat: 1, Pattern: pat,
		})
		if err != nil {
			t.Fatalf("pattern=%q: %v", pat, err)
		}
		if got := run.Results[0].Pattern; got != pat {
			t.Errorf("pattern=%q recorded as %q", pat, got)
		}
		delivered[pat] = run.Results[0].Delivered
	}
	if delivered[""] == delivered["complement"] {
		t.Errorf("random and complement delivered the same %d packets: the pattern is not reaching the source", delivered[""])
	}
	cfg := ScalingConfig{Dims: 4, Workers: []int{1}, Warmup: 10, Measure: 40, Repeat: 1, PhaseProf: true, Pattern: "transpose"}
	run, err := RunScaling("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ph := run.Points[0].Phases; run.Pattern != "transpose" || ph == nil || ph.Moves == 0 {
		t.Errorf("scaling run pattern %q, phases %+v", run.Pattern, ph)
	}
	if out := FormatScaling(run); !strings.Contains(out, "pattern=transpose") || !strings.Contains(out, "moves/node-cycle") {
		t.Errorf("scaling table misses the pattern or the per-node-cycle columns:\n%s", out)
	}
	cfg.Pattern = "no-such-pattern"
	if _, err := RunScaling("t", cfg); err == nil {
		t.Error("unknown pattern accepted")
	}
}

// TestRunAdversary smoke-runs the permutation search on a tiny hypercube and
// checks determinism and the shape of the result.
func TestRunAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	cfg := AdversaryConfig{
		AlgoSpec: "hypercube-adaptive:4", Lambda: 0.4,
		Warmup: 20, Measure: 100, Iters: 4, Seed: 3,
	}
	a, err := RunAdversary(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes != 16 || len(a.Sigma) != 16 || len(a.Evals) != 5 {
		t.Fatalf("unexpected shape: nodes=%d sigma=%d evals=%d", a.Nodes, len(a.Sigma), len(a.Evals))
	}
	seen := make([]bool, 16)
	for _, d := range a.Sigma {
		seen[d] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("Sigma is not a permutation: %d missing", i)
		}
	}
	if a.BestP99 < a.Evals[0].P99 {
		t.Errorf("best p99 %d below the initial permutation's %d", a.BestP99, a.Evals[0].P99)
	}
	b, err := RunAdversary(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.BestP99 != a.BestP99 || b.RandomP99 != a.RandomP99 {
		t.Errorf("search is not deterministic: %d/%d vs %d/%d", a.BestP99, a.RandomP99, b.BestP99, b.RandomP99)
	}
	if FormatAdversary(a) == "" {
		t.Error("empty report")
	}
}
