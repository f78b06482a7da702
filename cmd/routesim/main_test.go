package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro"
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

// TestAtomicEngineRefusesVCT: -vct with -engine atomic used to run and
// ignore the flag; now the engine names the option and routesim exits 1.
func TestAtomicEngineRefusesVCT(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-engine", "atomic", "-vct", "-algo", "hypercube-adaptive:4")
	cmd.Env = append(os.Environ(), "ROUTESIM_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "routesim: sim: Config.CutThrough does not apply to the atomic engine") {
		t.Errorf("output does not name the option:\n%s", out)
	}
}

// TestLikeAlgorithmMatchesRoute: the packet algorithm patterns are built on
// must live on the wormhole route's own network. Deriving it from the spec
// string once turned side "8x8" into a 4096-node torus-adaptive:8x8x8x8.
func TestLikeAlgorithmMatchesRoute(t *testing.T) {
	for spec, nodes := range map[string]int{
		"wh-torus-dor:8x8":          64,
		"wh-torus-dor:8":            64,
		"wh-torus-adaptive:4x5x3":   60,
		"wh-hypercube-adaptive:6":   64,
		"wh-hypercube-nonminimal:5": 32,
	} {
		route, err := repro.NewWormholeRoute(spec)
		if err != nil {
			t.Fatal(err)
		}
		like, err := likeAlgorithm(route)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if got := like.Topology().Nodes(); got != nodes || got != route.Topology().Nodes() {
			t.Errorf("%s: pattern network has %d nodes, route %d, want %d", spec, got, route.Topology().Nodes(), nodes)
		}
	}
}
