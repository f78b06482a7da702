package exec

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/buildid"
	"repro/internal/spec"
	"repro/internal/store"
)

// small is a cheap, valid spec used throughout; dim-4 hypercube, static.
func small() RunSpec {
	return RunSpec{Algo: "hypercube-adaptive:4", Seed: 1}
}

func TestCanonFillsPaperDefaults(t *testing.T) {
	c := small().Canon()
	if c.V != SpecVersion || c.Pattern != "random" || c.Engine != "buffered" ||
		c.Policy != "first-free" || c.Inject != "static" || c.Packets != 1 ||
		c.MaxCycles != 10_000_000 || c.QueueCap != 5 {
		t.Fatalf("canonical form misses paper defaults: %+v", c)
	}
	if c.Lambda != 0 || c.Warmup != 0 || c.Measure != 0 {
		t.Fatalf("static canon should zero the dynamic window: %+v", c)
	}
	d := RunSpec{Algo: "hypercube-adaptive:4", Inject: "dynamic"}.Canon()
	if d.Lambda != 1 || d.Warmup != 500 || d.Measure != 1500 || d.Packets != 0 || d.MaxCycles != 0 {
		t.Fatalf("dynamic canon wrong: %+v", d)
	}
}

func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*RunSpec)
		field string
	}{
		{"missing algo", func(s *RunSpec) { s.Algo = "" }, "algo"},
		{"bad algo", func(s *RunSpec) { s.Algo = "hypercube-adaptive:0" }, "algo"},
		{"unknown algo", func(s *RunSpec) { s.Algo = "ring-adaptive:8" }, "algo"},
		{"bad pattern", func(s *RunSpec) { s.Pattern = "zigzag" }, "pattern"},
		{"bad engine", func(s *RunSpec) { s.Engine = "quantum" }, "engine"},
		{"atomic cut-through", func(s *RunSpec) { s.Engine = "atomic:vct" }, "engine"},
		{"empty engine option", func(s *RunSpec) { s.Engine = "buffered:" }, "engine"},
		{"unknown engine option", func(s *RunSpec) { s.Engine = "buffered:nope" }, "engine"},
		{"bad policy", func(s *RunSpec) { s.Policy = "best-fit" }, "policy"},
		{"bad inject", func(s *RunSpec) { s.Inject = "burst" }, "inject"},
		{"bad packets", func(s *RunSpec) { s.Packets = -1 }, "packets"},
		{"bad lambda", func(s *RunSpec) { s.Inject = "dynamic"; s.Lambda = 2 }, "lambda"},
		{"bad measure", func(s *RunSpec) { s.Inject = "dynamic"; s.Measure = -1 }, "measure"},
		{"bad cap", func(s *RunSpec) { s.QueueCap = -2 }, "queue_cap"},
		{"bad workers", func(s *RunSpec) { s.Workers = -1 }, "workers"},
		{"bad faults", func(s *RunSpec) { s.Faults = "link:1:2" }, "faults"},
		{"bad version", func(s *RunSpec) { s.V = 99 }, "v"},
	}
	for _, tc := range cases {
		s := small()
		tc.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, s)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: blamed field %q, want %q (%v)", tc.name, fe.Field, tc.field, err)
		}
	}
}

// The satellite rule: Workers > 1 on the atomic engine is an error, not a
// silent no-op.
func TestValidateRejectsAtomicWorkers(t *testing.T) {
	s := small()
	s.Engine = "atomic"
	s.Workers = 4
	err := s.Validate()
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "workers" {
		t.Fatalf("want workers FieldError, got %v", err)
	}
	s.Workers = 1 // one worker is the sequential path: allowed
	if err := s.Validate(); err != nil {
		t.Fatalf("atomic with workers=1 should validate: %v", err)
	}
}

// Fingerprint must be a function of the spec's content, not of its JSON
// spelling: reordered fields, explicit defaults, and excluded execution
// knobs all map to the same key.
func TestFingerprintStability(t *testing.T) {
	base := RunSpec{Algo: "hypercube-adaptive:6", Pattern: "transpose", Seed: 7, QueueCap: 5}
	fp := base.Fingerprint("build1")

	reordered := []byte(`{"queue_cap":5,"seed":7,"pattern":"transpose","algo":"hypercube-adaptive:6"}`)
	var s2 RunSpec
	if err := json.Unmarshal(reordered, &s2); err != nil {
		t.Fatal(err)
	}
	if got := s2.Fingerprint("build1"); got != fp {
		t.Errorf("JSON field order changed the fingerprint: %s vs %s", got, fp)
	}

	explicit := base
	explicit.V = SpecVersion
	explicit.Engine = "buffered"
	explicit.Policy = "first-free"
	explicit.Inject = "static"
	explicit.Packets = 1
	explicit.MaxCycles = 10_000_000
	if got := explicit.Fingerprint("build1"); got != fp {
		t.Errorf("spelling out the defaults changed the fingerprint: %s vs %s", got, fp)
	}

	knobs := base
	knobs.Workers = 8
	if got := knobs.Fingerprint("build1"); got != fp {
		t.Errorf("Workers leaked into the fingerprint: %s vs %s", got, fp)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := small()
	fp := base.Fingerprint("build1")
	muts := map[string]func(*RunSpec){
		"algo":    func(s *RunSpec) { s.Algo = "hypercube-adaptive:5" },
		"pattern": func(s *RunSpec) { s.Pattern = "complement" },
		"engine":  func(s *RunSpec) { s.Engine = "atomic" },
		"policy":  func(s *RunSpec) { s.Policy = "random" },
		"seed":    func(s *RunSpec) { s.Seed = 2 },
		"packets": func(s *RunSpec) { s.Packets = 3 },
		"cap":     func(s *RunSpec) { s.QueueCap = 6 },
		"faults":  func(s *RunSpec) { s.Faults = "node:3@100" },
	}
	for name, mut := range muts {
		s := base
		mut(&s)
		if s.Fingerprint("build1") == fp {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	if base.Fingerprint("build2") == fp {
		t.Error("changing the build id did not change the fingerprint")
	}
}

func TestBuildAndRun(t *testing.T) {
	s := small()
	eng, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		t.Fatal("Build returned a nil simulator")
	}
	res, err := Run(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Delivered != 16 { // 16 nodes x 1 packet
		t.Fatalf("dim-4 static-1 run delivered %d packets, want 16", res.Metrics.Delivered)
	}
	if res.FP != s.Fingerprint(buildid.ID()) {
		t.Errorf("result fingerprint %s does not match the spec's %s", res.FP, s.Fingerprint(buildid.ID()))
	}
	if res.Spec.Packets != 1 || res.Spec.Engine != "buffered" {
		t.Errorf("result spec is not canonical: %+v", res.Spec)
	}
}

// A side-1 mesh dimension has no port, so this 2-node mesh has one port.
// When every dimension carried two port slots, its only link was port 32,
// past the 32-bit port mask, and the buffered engine reported a deadlock.
func TestDegenerateMeshDelivers(t *testing.T) {
	for _, engine := range []string{"buffered", "atomic"} {
		s := RunSpec{Algo: "mesh-adaptive:1x1x1x1x1x1x1x1x1x1x1x1x1x1x1x1x2", Engine: engine, Seed: 1}
		res, err := Run(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Metrics.Delivered != 2 {
			t.Errorf("%s: delivered %d packets, want 2", engine, res.Metrics.Delivered)
		}
	}
}

// Two executions of the same spec must produce identical Metrics — the
// invariant that makes the fingerprint a content address.
func TestRunDeterministic(t *testing.T) {
	s := RunSpec{Algo: "hypercube-adaptive:5", Inject: "dynamic", Warmup: 50, Measure: 100, Seed: 3}
	a, err := Run(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("same spec, different metrics:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

// Workers is outside the fingerprint, so a credited (not worker-count
// deterministic) run must come out the same for any value: Run pins it to
// one worker instead of tripping sim.Config's refusal.
func TestRunPinsCreditedAlgorithms(t *testing.T) {
	s := RunSpec{Algo: "shuffle-adaptive:6", Inject: "dynamic", Lambda: 0.5, Warmup: 50, Measure: 100, Seed: 3}
	if c, err := Compile(s); err != nil || c.Parallelizable {
		t.Fatalf("shuffle-adaptive reported as parallelizable (err %v)", err)
	}
	one, err := Run(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	four, err := Run(context.Background(), s, nil)
	if err != nil {
		t.Fatalf("workers 4: %v", err)
	}
	if one.Metrics != four.Metrics || one.FP != four.FP {
		t.Errorf("workers changed a credited run:\n 1: %+v\n 4: %+v", one.Metrics, four.Metrics)
	}
}

func TestCostAndParallelizable(t *testing.T) {
	compile := func(s RunSpec) *Compiled {
		t.Helper()
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	stat := compile(small())
	dyn := compile(RunSpec{Algo: "hypercube-adaptive:4", Inject: "dynamic", Warmup: 100, Measure: 300})
	if stat.Cost <= 0 || dyn.Cost <= 0 {
		t.Fatalf("valid specs must have positive cost: %v %v", stat.Cost, dyn.Cost)
	}
	if want := float64(16 * 400); dyn.Cost != want {
		t.Errorf("dynamic cost %v, want nodes x window = %v", dyn.Cost, want)
	}
	if !stat.Parallelizable {
		t.Error("buffered non-credited run should be parallelizable")
	}
	atomic := small()
	atomic.Engine = "atomic"
	if compile(atomic).Parallelizable {
		t.Error("atomic engine must not be parallelizable")
	}
}

// Compile records the canonical spec, and its Run is the run Run makes:
// same metrics, fingerprint and recorded spec, whether the worker count
// comes from the spec or from the caller's grant, and again on a second Run
// of the same Compiled.
func TestCompileOnce(t *testing.T) {
	s := RunSpec{Algo: "graph-adaptive:random-regular:n=64,k=3,seed=2", Inject: "dynamic", Lambda: 0.2, Warmup: 20, Measure: 60, Seed: 7}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec != s.Canon() {
		t.Fatalf("Compiled spec %+v, want the canonical %+v", c.Spec, s.Canon())
	}
	withWorkers := s
	withWorkers.Workers = 2
	want, err := Run(context.Background(), withWorkers, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := c.Run(context.Background(), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		got.ElapsedSec, want.ElapsedSec = 0, 0
		if got != want {
			t.Fatalf("Compiled.Run with a grant of 2:\n got  %+v\n want %+v", got, want)
		}
	}
	if _, err := Compile(RunSpec{Algo: "graph-adaptive", Topology: "graph:random-regular:n=7,k=3,seed=1"}); err == nil {
		t.Fatal("Compile accepted an impossible topology")
	}
}

// Save and Load are the two ends of the store's blob format: what one
// writes the other returns whole, a key never written is a plain miss, and
// a blob that is not a Result is an error, not a zero Result.
func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), small(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(st, res.FP, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := Load(st, res.FP)
	if err != nil || !ok {
		t.Fatalf("Load after Save: ok=%v err=%v", ok, err)
	}
	if got != res {
		t.Errorf("loaded %+v, saved %+v", got, res)
	}
	if _, ok, err := Load(st, "absent"); ok || err != nil {
		t.Errorf("absent key: ok=%v err=%v, want a plain miss", ok, err)
	}
	if err := st.Put("damaged", []byte(`[1,2]`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := Load(st, "damaged"); ok || err == nil {
		t.Errorf("damaged blob: ok=%v err=%v, want an error", ok, err)
	}
}

// Storable is false for exactly the traffic models whose input is a file:
// the ones spec.ParseTraffic reports as not generating their own traffic.
func TestStorableFollowsTrafficGrammar(t *testing.T) {
	if !small().Storable() {
		t.Error("a spec with no traffic model is not storable")
	}
	for _, tspec := range []string{"bernoulli", "mmpp", "mmpp:on=0.9,off=0.05", "onoff:hi=0.9,lo=0.1", "trace:run.jsonl", "trace:dir/with:colon.jsonl"} {
		ts, err := spec.ParseTraffic(tspec)
		if err != nil {
			t.Fatal(err)
		}
		s := RunSpec{Algo: "hypercube-adaptive:4", Traffic: tspec}
		if s.Storable() != ts.Dynamic() {
			t.Errorf("traffic %q: Storable %v, but the grammar says generated=%v", tspec, s.Storable(), ts.Dynamic())
		}
	}
}
