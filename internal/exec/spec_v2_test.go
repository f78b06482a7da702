package exec

import (
	"context"
	"errors"
	"testing"
)

// TestGoldenV1Fingerprints pins the fingerprint of one spec per v1
// algorithm family (plus assorted option shapes), and checks that the v1
// spelling, the v2 spelling and an explicit v:1 share the key. A pinned
// value moves only with the recipe: a change there must be deliberate,
// since every stored result keyed under the old recipe goes cold.
func TestGoldenV1Fingerprints(t *testing.T) {
	cases := []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{Algo: "hypercube-adaptive:4", Seed: 1}, "67060fc903d2c92f0d98d8bb"},
		{RunSpec{Algo: "hypercube-adaptive:10", Pattern: "transpose", Inject: "dynamic", Seed: 7}, "1d7558f618cbabdbff5c202e"},
		{RunSpec{Algo: "hypercube-hung:6", Policy: "random", Seed: 2}, "0e89fad083f8450f69962afa"},
		{RunSpec{Algo: "hypercube-ecube:5", Engine: "atomic", Seed: 3}, "3684c4139a159114be1a4cb4"},
		{RunSpec{Algo: "mesh-adaptive:16x16", Pattern: "mesh-transpose", Seed: 4, QueueCap: 7}, "48f1f46eac8a7e82b42b3a93"},
		{RunSpec{Algo: "mesh-twophase:8x8", Inject: "dynamic", Lambda: 0.08, Seed: 5}, "8315ca44fc4fa57222184795"},
		{RunSpec{Algo: "mesh-xy:4x3x3", Seed: 6}, "47e0e9cbde3f36c8b636867b"},
		{RunSpec{Algo: "torus-adaptive:8x8", Faults: "links:0.05@0", HopBudget: 12, Seed: 8}, "f4c47957b929b86511b44237"},
		{RunSpec{Algo: "shuffle-adaptive:5", Engine: "atomic", Seed: 9}, "3f2cf6101c6c91bccd9251ba"},
		{RunSpec{Algo: "shuffle-static:4", Packets: 3, Seed: 10}, "516dcbf8ef2403d50426cb0f"},
		{RunSpec{Algo: "shuffle-eager:4", Seed: 11}, "e981b2df9893df3f0e50dd33"},
		{RunSpec{Algo: "ccc-adaptive:4", Pattern: "hotspot:0.3", Seed: 12}, "1759b63776cb37c955b587f5"},
		{RunSpec{Algo: "ccc-static:3", MaxCycles: 12345, Seed: 13}, "5cddee2355876fad78b63b49"},
		{RunSpec{Algo: "torus-adaptive:4x3x3", Workers: 8, Seed: 14}, "ec11cab29941507937408337"},
	}
	for _, c := range cases {
		if got := c.spec.Fingerprint("golden-build"); got != c.want {
			t.Errorf("%s: fingerprint drifted: got %s, want %s", c.spec.Algo, got, c.want)
		}
		// The v2 spelling of the same run — bare family plus explicit
		// topology — must land on the same store key.
		v2 := c.spec.Canon()
		if v2.Topology == "" {
			t.Errorf("%s: Canon did not derive a topology", c.spec.Algo)
			continue
		}
		if got := v2.Fingerprint("golden-build"); got != c.want {
			t.Errorf("%s: v2 spelling moved the fingerprint: got %s, want %s", c.spec.Algo, got, c.want)
		}
		// An explicitly versioned v1 spec is the same run too.
		v1 := c.spec
		v1.V = 1
		if got := v1.Fingerprint("golden-build"); got != c.want {
			t.Errorf("%s: explicit v:1 moved the fingerprint: got %s", c.spec.Algo, got)
		}
	}
}

func TestCanonSplitsCombinedAlgo(t *testing.T) {
	c := RunSpec{Algo: "hypercube-adaptive:6"}.Canon()
	if c.V != SpecVersion || c.Algo != "hypercube-adaptive" || c.Topology != "hypercube:6" {
		t.Errorf("Canon = v%d algo=%q topology=%q", c.V, c.Algo, c.Topology)
	}
	c = RunSpec{V: 1, Algo: "graph-adaptive:dragonfly:a=4,g=9"}.Canon()
	if c.Algo != "graph-adaptive" || c.Topology != "graph:dragonfly:a=4,g=9" {
		t.Errorf("Canon(graph) = algo=%q topology=%q", c.Algo, c.Topology)
	}
	// Already-split specs pass through unchanged.
	c = RunSpec{Algo: "mesh-xy", Topology: "mesh:4x4"}.Canon()
	if c.Algo != "mesh-xy" || c.Topology != "mesh:4x4" {
		t.Errorf("Canon(split) = algo=%q topology=%q", c.Algo, c.Topology)
	}
	// A redundant-but-consistent pair collapses to the split form.
	c = RunSpec{Algo: "mesh-xy:4x4", Topology: "mesh:4x4"}.Canon()
	if c.Algo != "mesh-xy" || c.Topology != "mesh:4x4" {
		t.Errorf("Canon(redundant) = algo=%q topology=%q", c.Algo, c.Topology)
	}
}

func TestValidateV2Fields(t *testing.T) {
	// Bare family with explicit topology is the canonical v2 form.
	s := RunSpec{Algo: "hypercube-adaptive", Topology: "hypercube:4"}
	if err := s.Validate(); err != nil {
		t.Errorf("v2 split spec rejected: %v", err)
	}
	// graph-adaptive over a generated network.
	s = RunSpec{Algo: "graph-adaptive", Topology: "graph:random-regular:n=16,k=3,seed=1"}
	if err := s.Validate(); err != nil {
		t.Errorf("graph-adaptive spec rejected: %v", err)
	}
	cases := []struct {
		name  string
		spec  RunSpec
		field string
	}{
		{"conflict", RunSpec{Algo: "hypercube-adaptive:6", Topology: "hypercube:5"}, "topology"},
		{"kind conflict", RunSpec{Algo: "mesh-adaptive:4x4", Topology: "torus:4x4"}, "topology"},
		{"missing topology", RunSpec{Algo: "hypercube-adaptive"}, "topology"},
		{"bad topology", RunSpec{Algo: "graph-adaptive", Topology: "graph:dragonfly:a=4,g=10"}, "topology"},
		{"unknown topology", RunSpec{Algo: "graph-adaptive", Topology: "ring:9"}, "topology"},
		{"algo/topology mismatch", RunSpec{Algo: "mesh-adaptive", Topology: "hypercube:4"}, "algo"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.spec)
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

// TestGraphFingerprintShape: a generated-topology spec has one key for its
// combined and split spellings, and the key follows the generator
// parameters.
func TestGraphFingerprintShape(t *testing.T) {
	base := RunSpec{Algo: "graph-adaptive", Topology: "graph:dragonfly:a=4,g=9", Seed: 1}
	fp := base.Fingerprint("b")
	// The combined algo spelling is the same run.
	combined := RunSpec{Algo: "graph-adaptive:dragonfly:a=4,g=9", Seed: 1}
	if got := combined.Fingerprint("b"); got != fp {
		t.Errorf("combined graph spelling moved the fingerprint: %s vs %s", got, fp)
	}
	other := base
	other.Topology = "graph:dragonfly:a=4,g=13"
	if other.Fingerprint("b") == fp {
		t.Error("different generator parameters share a fingerprint")
	}
}

// TestTrafficFingerprints pins the traffic field's fingerprint behavior:
// the default model, empty or explicit "bernoulli", is one key, while
// non-default models get their own stable key.
func TestTrafficFingerprints(t *testing.T) {
	base := RunSpec{Algo: "hypercube-adaptive:10", Pattern: "transpose", Inject: "dynamic", Seed: 7}
	const want = "1d7558f618cbabdbff5c202e" // pinned in TestGoldenV1Fingerprints
	if got := base.Fingerprint("golden-build"); got != want {
		t.Fatalf("base fingerprint drifted: %s", got)
	}
	explicit := base
	explicit.Traffic = "bernoulli"
	if got := explicit.Fingerprint("golden-build"); got != want {
		t.Errorf("explicit default traffic moved the fingerprint: got %s, want %s", got, want)
	}

	mmpp := base
	mmpp.Traffic = "mmpp:on=0.9,off=0.05,p10=0.1,p01=0.1"
	const wantMMPP = "4da6647fa8003d669d7613d6"
	if got := mmpp.Fingerprint("golden-build"); got != wantMMPP {
		t.Errorf("mmpp fingerprint drifted: got %s, want %s", got, wantMMPP)
	}
	if got := mmpp.Fingerprint("golden-build"); got == want {
		t.Error("mmpp traffic did not change the fingerprint")
	}
}

// TestCutThroughEngine pins the one engine value with a node-model option:
// "buffered:vct" has its own stable store key, apart from plain "buffered"
// (whose pinned key it must not move), and it builds the cut-through node
// model. Worker-count determinism of that model at 2 and 7 workers is
// sim's TestDeterminismAcrossWorkers; here the spec path is checked at 1
// and 2, because the fingerprint excludes Workers.
func TestCutThroughEngine(t *testing.T) {
	plain := RunSpec{Algo: "hypercube-adaptive:10", Pattern: "transpose", Inject: "dynamic", Seed: 7}
	const want = "1d7558f618cbabdbff5c202e" // pinned in TestGoldenV1Fingerprints
	vct := plain
	vct.Engine = "buffered:vct"
	const wantVCT = "4be35e9c8dbbbb8c00cec959"
	if got := plain.Fingerprint("golden-build"); got != want {
		t.Fatalf("plain buffered fingerprint drifted: %s", got)
	}
	if got := vct.Fingerprint("golden-build"); got != wantVCT {
		t.Errorf("buffered:vct fingerprint drifted: got %s, want %s", got, wantVCT)
	}

	small := RunSpec{Algo: "hypercube-adaptive:5", Inject: "dynamic", Lambda: 0.6, Warmup: 50, Measure: 150, Seed: 3}
	base, err := Run(context.Background(), small, nil)
	if err != nil {
		t.Fatal(err)
	}
	small.Engine = "buffered:vct"
	var runs [2]Result
	for i := range runs {
		small.Workers = i + 1
		if runs[i], err = Run(context.Background(), small, nil); err != nil {
			t.Fatalf("workers %d: %v", i+1, err)
		}
	}
	if runs[0].Metrics != runs[1].Metrics || runs[0].FP != runs[1].FP {
		t.Errorf("buffered:vct differs across workers:\n 1: %+v\n 2: %+v", runs[0].Metrics, runs[1].Metrics)
	}
	if runs[0].Metrics == base.Metrics || runs[0].Metrics.AvgLatency() >= base.Metrics.AvgLatency() {
		t.Errorf("buffered:vct ran store-and-forward: L_avg %.2f, plain %.2f", runs[0].Metrics.AvgLatency(), base.Metrics.AvgLatency())
	}
}

func TestValidateTrafficField(t *testing.T) {
	ok := RunSpec{Algo: "hypercube-adaptive:4", Inject: "dynamic", Traffic: "mmpp:on=0.8"}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid mmpp spec rejected: %v", err)
	}
	var fe *FieldError
	bad := RunSpec{Algo: "hypercube-adaptive:4", Inject: "dynamic", Traffic: "poisson"}
	if err := bad.Validate(); !errors.As(err, &fe) || fe.Field != "traffic" {
		t.Errorf("unknown traffic model: %v", err)
	}
	static := RunSpec{Algo: "hypercube-adaptive:4", Traffic: "mmpp"}
	if err := static.Validate(); !errors.As(err, &fe) || fe.Field != "traffic" {
		t.Errorf("mmpp under static injection should fail on the traffic field: %v", err)
	}
	// Trace replay is allowed under both plans; parse errors still surface.
	trace := RunSpec{Algo: "hypercube-adaptive:4", Traffic: "trace:run.jsonl"}
	if err := trace.Validate(); err != nil {
		t.Errorf("trace under static injection rejected: %v", err)
	}
	malformed := RunSpec{Algo: "hypercube-adaptive:4", Inject: "dynamic", Traffic: "mmpp:on=2"}
	if err := malformed.Validate(); !errors.As(err, &fe) || fe.Field != "traffic" {
		t.Errorf("malformed mmpp: %v", err)
	}
}
