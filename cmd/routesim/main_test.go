package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"slices"
	"strings"
	"testing"

	"repro/internal/buildid"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestMain lets a test run this binary as routesim itself: with
// ROUTESIM_AS_MAIN set, the arguments go to main.
func TestMain(m *testing.M) {
	if os.Getenv("ROUTESIM_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// routesim runs this binary as routesim with the given arguments.
func routesim(args ...string) (string, error) {
	cmd := osexec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ROUTESIM_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestAtomicEngineRefusesVCT: a flag set the atomic engine cannot honour
// used to run and ignore it. Cut-through and worker counts above one are
// now refused with the spec's field error, and routesim exits 1. So are the
// engine and algorithm names of the flit-level wormhole engine, which once
// ran outside the spec, and a traffic model the adversarial search would
// apply to its baseline but not to its candidates.
func TestAtomicEngineRefusesVCT(t *testing.T) {
	const cube = "hypercube-adaptive:4"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-engine", "atomic:vct", "-algo", cube}, `routesim: runspec: field "engine"`},
		{[]string{"-engine", "atomic", "-workers", "4", "-algo", cube}, `routesim: runspec: field "workers"`},
		{[]string{"-engine", "wormhole", "-algo", cube}, `routesim: runspec: field "engine"`},
		{[]string{"-algo", "wh-torus-adaptive:4"}, `routesim: runspec: field "algo"`},
		{[]string{"-advsearch", "-traffic", "mmpp", "-algo", cube}, "routesim: -advsearch scores Bernoulli traffic"},
	} {
		out, err := routesim(tc.args...)
		var exit *osexec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1; output:\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: output does not name the field (%s):\n%s", tc.args, tc.want, out)
		}
	}
}

// TestHelpNamesEveryPolicy: the -policy help once listed three of the four
// policies the spec accepts; it is now built from sim.PolicyNames.
func TestHelpNamesEveryPolicy(t *testing.T) {
	out, _ := routesim("-h")
	if !strings.Contains(out, "-policy") {
		t.Fatalf("routesim -h does not describe -policy:\n%s", out)
	}
	for _, name := range sim.PolicyNames {
		if !strings.Contains(out, name) {
			t.Errorf("routesim -h does not name policy %q", name)
		}
	}
}

// TestRoutesimIsARunSpec: routesim's metric lines for a flag set are the
// metrics exec.Run produces for the equivalent spec, and its fingerprint is
// that spec's. Both once differed: routesim seeded the pattern and traffic
// with seed and seed+1 where a spec uses seed+1 and seed+2. -phaseprof adds
// a phases line and changes nothing else.
func TestRoutesimIsARunSpec(t *testing.T) {
	dyn := []string{"-algo", "hypercube-adaptive:6", "-inject", "dynamic", "-lambda", "0.6", "-warmup", "100", "-measure", "400"}
	dynSpec := exec.RunSpec{Algo: "hypercube-adaptive:6", Inject: "dynamic", Lambda: 0.6, Warmup: 100, Measure: 400, Seed: 1}
	vct, mmpp := dynSpec, dynSpec
	vct.Engine = "buffered:vct"
	mmpp.Traffic = "mmpp:on=0.9,off=0.05"
	for _, tc := range []struct {
		args []string
		spec exec.RunSpec
	}{
		{dyn, dynSpec},
		{[]string{"-algo", "hypercube-adaptive:6", "-packets", "2", "-kill-links", "0.05", "-seed", "42"},
			exec.RunSpec{Algo: "hypercube-adaptive:6", Packets: 2, Faults: "links:0.05@0", Seed: 42}},
		{append([]string{"-engine", "buffered:vct"}, dyn...), vct},
		{append([]string{"-traffic", "mmpp:on=0.9,off=0.05"}, dyn...), mmpp},
		{append([]string{"-phaseprof", "-workers", "2"}, dyn...), dynSpec},
	} {
		out, err := routesim(tc.args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		if slices.Contains(tc.args, "-phaseprof") && !strings.Contains(out, "\nphases    : ") {
			t.Errorf("%v: no phases line:\n%s", tc.args, out)
		}
		res, err := exec.Run(context.Background(), tc.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		want := map[string]string{
			"fingerprint": "fingerprint: " + tc.spec.Fingerprint(buildid.ID()),
			"packets":     fmt.Sprintf("packets   : injected=%d delivered=%d in-flight=%d", m.Injected, m.Delivered, m.InFlight),
			"latency":     fmt.Sprintf("latency   : avg=%.2f max=%d (over %d measured deliveries)", m.AvgLatency(), m.LatencyMax, m.Measured),
			"inj. rate":   fmt.Sprintf("inj. rate : %.1f%% (%d/%d attempts)", 100*m.InjectionRate(), m.Successes, m.Attempts),
			"movement": fmt.Sprintf("movement  : %d moves, %d over dynamic links (%.1f%%), max queue occupancy %d",
				m.Moves, m.DynamicMoves, pct(m.DynamicMoves, m.Moves), m.MaxQueue),
		}
		if tc.spec.Faults != "" {
			want["packets"] += fmt.Sprintf(" dropped=%d (faults: %s)", m.Dropped, tc.spec.Faults)
		}
		for label, line := range want {
			got := ""
			for _, l := range strings.Split(out, "\n") {
				if strings.HasPrefix(l, label) {
					got = l
					break
				}
			}
			if got != line {
				t.Errorf("%v: %s line\n got  %q\n want %q", tc.args, label, got, line)
			}
		}
	}
}

// TestRunAdversary smoke-runs the permutation search on a tiny hypercube and
// checks determinism and the shape of the result.
func TestRunAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	c, err := exec.Compile(exec.RunSpec{
		Algo: "hypercube-adaptive:4", Inject: "dynamic", Lambda: 0.4,
		Warmup: 20, Measure: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := advSearch(context.Background(), c, 4, 0)
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
	if a.Best.P99 < a.Evals[0].P99 {
		t.Errorf("best p99 %d below the initial permutation's %d", a.Best.P99, a.Evals[0].P99)
	}
	b, err := advSearch(context.Background(), c, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Best != a.Best || b.Baseline != a.Baseline {
		t.Errorf("search is not deterministic: %+v/%+v vs %+v/%+v", a.Best, a.Baseline, b.Best, b.Baseline)
	}
}

// TestAdvsearchIsARunSpec: the search's baseline is the run routesim's flags
// describe. It once ignored -cap and -policy (and -faults) and scored the
// paper's defaults instead.
func TestAdvsearchIsARunSpec(t *testing.T) {
	out, err := routesim("-algo", "hypercube-adaptive:6", "-advsearch", "-adviters", "0",
		"-lambda", "1", "-warmup", "100", "-measure", "300", "-cap", "2", "-policy", "random")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	lat := obs.NewLatency()
	_, err = exec.Run(context.Background(), exec.RunSpec{
		Algo: "hypercube-adaptive:6", Inject: "dynamic", Lambda: 1, Warmup: 100, Measure: 300,
		QueueCap: 2, Policy: "random", Seed: 1,
	}, lat)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("  random baseline: p50=%d p99=%d\n", lat.Percentile(50), lat.Percentile(99))
	if !strings.Contains(out, want) {
		t.Errorf("report lacks %q:\n%s", want, out)
	}
}
