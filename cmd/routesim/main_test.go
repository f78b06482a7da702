package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"strings"
	"testing"

	"repro/internal/buildid"
	"repro/internal/exec"
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
// ran outside the spec.
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
// with seed and seed+1 where a spec uses seed+1 and seed+2.
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
	} {
		out, err := routesim(tc.args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
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
