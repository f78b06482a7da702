package repro_test

import (
	"context"
	"strings"
	"testing"

	"repro"
)

// TestNewAlgorithmRejectsNonsense checks that malformed or out-of-range
// sizes come back as errors, never panics, for every algorithm family.
func TestNewAlgorithmRejectsNonsense(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"hypercube-adaptive:-1", "out of range"},
		{"hypercube-adaptive:0", "out of range"},
		{"hypercube-adaptive:31", "out of range"},
		{"hypercube-hung:-3", "out of range"},
		{"hypercube-ecube:99", "out of range"},
		{"mesh-adaptive:0x5", "must be >= 1"},
		{"mesh-adaptive:-2x4", "must be >= 1"},
		{"mesh-adaptive:5x", "bad shape"},
		{"mesh-adaptive:", "bad shape"},
		{"mesh-twophase:4x0", "must be >= 1"},
		{"mesh-xy:0", "must be >= 1"},
		{"mesh-adaptive:100000x100000", "nodes"},
		{"shuffle-adaptive:0", "out of range"},
		{"shuffle-adaptive:27", "out of range"},
		{"shuffle-static:-1", "out of range"},
		{"shuffle-eager:40", "out of range"},
		{"ccc-adaptive:1", "out of range"},
		{"ccc-adaptive:17", "out of range"},
		{"ccc-static:0", "out of range"},
		{"torus-adaptive:2x4", "must be >= 3"},
		{"torus-adaptive:4x2", "must be >= 3"},
		{"torus-adaptive:0x0", "must be >= 3"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("NewAlgorithm(%q) panicked: %v", c.spec, r)
				}
			}()
			_, err := repro.NewAlgorithm(c.spec)
			if err == nil {
				t.Errorf("NewAlgorithm(%q) accepted", c.spec)
				return
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("NewAlgorithm(%q) error %q does not mention %q", c.spec, err, c.want)
			}
		}()
	}
}

func TestNewPatternRejectsNonsense(t *testing.T) {
	cube, err := repro.NewAlgorithm("hypercube-adaptive:4")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"hotspot:-0.5", "hotspot:NaN", "hotspot:x", "nope", ""} {
		if _, err := repro.NewPattern(spec, cube, 1); err == nil {
			t.Errorf("NewPattern(%q) accepted", spec)
		}
	}
}

// TestConfigOptions checks the Config knobs a library user sets by hand: an
// observer on a two-worker buffered engine sees every delivery and leaves
// the metrics of the one-worker, unobserved engine unchanged, and the
// atomic engine takes a composed observer and a watchdog window.
func TestConfigOptions(t *testing.T) {
	algo, err := repro.NewAlgorithm("hypercube-adaptive:5")
	if err != nil {
		t.Fatal(err)
	}
	pat, err := repro.NewPattern("random", algo, 3)
	if err != nil {
		t.Fatal(err)
	}

	lat := repro.NewLatencyObserver()
	eng, err := repro.NewSimulator("buffered", repro.Config{
		Algorithm: algo, QueueCap: 5, Policy: repro.PolicyRandom, Seed: 11,
		Workers: 2, Observer: lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), repro.NewStaticTraffic(pat, algo, 2, 7), repro.StaticPlan(100000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Observed {
		t.Fatal("observer attached but RunResult.Observed is false")
	}
	if lat.Count() != res.Metrics.Delivered {
		t.Fatalf("latency observer saw %d deliveries, engine %d", lat.Count(), res.Metrics.Delivered)
	}

	// One worker and no observer must agree exactly.
	ref, err := repro.NewSimulator("buffered", repro.Config{
		Algorithm: algo, QueueCap: 5, Policy: repro.PolicyRandom, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ref.Run(context.Background(), repro.NewStaticTraffic(pat, algo, 2, 7), repro.StaticPlan(100000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != res2.Metrics {
		t.Errorf("observed two-worker metrics differ from the plain engine's:\n%+v\n%+v", res.Metrics, res2.Metrics)
	}

	// Atomic engine with a composed observer.
	smp := repro.NewSampler(50)
	ae, err := repro.NewSimulator("atomic", repro.Config{
		Algorithm: algo, Seed: 11,
		Observer: repro.MultiObserver(nil, smp),
	})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := ae.Run(context.Background(), repro.NewDynamicTraffic(pat, algo, 0.3, 5), repro.DynamicPlan(50, 150))
	if err != nil {
		t.Fatal(err)
	}
	if len(smp.Samples) == 0 {
		t.Fatal("sampler recorded nothing")
	}
	if got := ares.Snapshot.Counter(repro.CDelivered); got != ares.Metrics.Delivered {
		t.Errorf("snapshot delivered %d, metrics %d", got, ares.Metrics.Delivered)
	}
}

// TestMetricsNoObserver checks the Metrics-only path: no observer, but the
// RunResult still carries the final snapshot and Obs() is live.
func TestMetricsNoObserver(t *testing.T) {
	algo, err := repro.NewAlgorithm("mesh-adaptive:4x4")
	if err != nil {
		t.Fatal(err)
	}
	pat, err := repro.NewPattern("random", algo, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 7, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Obs() == nil {
		t.Fatal("Config.Metrics must enable the metrics core")
	}
	res, err := eng.Run(context.Background(), repro.NewStaticTraffic(pat, algo, 2, 5), repro.StaticPlan(100000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Observed || res.Snapshot.Counter(repro.CDelivered) != res.Metrics.Delivered {
		t.Errorf("metrics-only run: observed=%v snapshot delivered=%d metrics=%d",
			res.Observed, res.Snapshot.Counter(repro.CDelivered), res.Metrics.Delivered)
	}
	if got := eng.Obs().Latest(); got.Counter(repro.CDelivered) != res.Metrics.Delivered {
		t.Errorf("Obs().Latest() delivered = %d, want %d", got.Counter(repro.CDelivered), res.Metrics.Delivered)
	}
}
