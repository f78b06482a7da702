package repro_test

import (
	"context"
	"strings"
	"testing"

	"repro"
)

func TestNewAlgorithmSpecs(t *testing.T) {
	good := map[string]string{
		"hypercube-adaptive:6": "hypercube-adaptive",
		"hypercube-hung:5":     "hypercube-hung",
		"hypercube-ecube:4":    "hypercube-ecube",
		"mesh-adaptive:4x6":    "mesh-adaptive",
		"mesh-twophase:3x3":    "mesh-twophase",
		"mesh-xy:5x5":          "mesh-xy",
		"shuffle-adaptive:5":   "shuffle-adaptive",
		"shuffle-static:5":     "shuffle-static",
		"torus-adaptive:4x4":   "torus-adaptive",
		"mesh-adaptive:3x4x2":  "mesh-adaptive",
	}
	for spec, wantName := range good {
		a, err := repro.NewAlgorithm(spec)
		if err != nil {
			t.Errorf("NewAlgorithm(%q): %v", spec, err)
			continue
		}
		if a.Name() != wantName {
			t.Errorf("NewAlgorithm(%q).Name() = %q, want %q", spec, a.Name(), wantName)
		}
	}
	for _, spec := range []string{"", "hypercube-adaptive", "nope:4", "mesh-adaptive:axb", "hypercube-adaptive:x"} {
		if _, err := repro.NewAlgorithm(spec); err == nil {
			t.Errorf("NewAlgorithm(%q) accepted", spec)
		}
	}
}

func TestAlgorithmNamesMatchConstructors(t *testing.T) {
	for _, tmpl := range repro.AlgorithmNames() {
		name := strings.SplitN(tmpl, ":", 2)[0]
		spec := name + ":4"
		if strings.Contains(tmpl, "x<side>") {
			spec = name + ":4x4"
		}
		if name == "graph-adaptive" {
			spec = name + ":fat-tree:leaves=4,spines=2"
		}
		if _, err := repro.NewAlgorithm(spec); err != nil {
			t.Errorf("listed algorithm %q is not constructible (%q): %v", tmpl, spec, err)
		}
	}
}

func TestNewPatternSpecs(t *testing.T) {
	cube, _ := repro.NewAlgorithm("hypercube-adaptive:6")
	for _, spec := range []string{"random", "complement", "transpose", "leveled", "bit-reversal", "hotspot:0.3"} {
		if _, err := repro.NewPattern(spec, cube, 1); err != nil {
			t.Errorf("NewPattern(%q) on hypercube: %v", spec, err)
		}
	}
	if _, err := repro.NewPattern("mesh-transpose", cube, 1); err == nil {
		t.Error("mesh-transpose accepted on a hypercube")
	}
	mesh, _ := repro.NewAlgorithm("mesh-adaptive:5x5")
	if _, err := repro.NewPattern("mesh-transpose", mesh, 1); err != nil {
		t.Errorf("mesh-transpose on square mesh: %v", err)
	}
	if _, err := repro.NewPattern("complement", mesh, 1); err == nil {
		t.Error("complement accepted on a 25-node mesh (not a power of two)")
	}
	if _, err := repro.NewPattern("nope", cube, 1); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := repro.NewPattern("hotspot:2", cube, 1); err == nil {
		t.Error("hotspot fraction > 1 accepted")
	}
}

// TestEndToEnd drives the whole public API the way the quickstart does.
func TestEndToEnd(t *testing.T) {
	algo, err := repro.NewAlgorithm("hypercube-adaptive:6")
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.VerifyDeadlockFree(algo); err != nil {
		t.Fatal(err)
	}
	pat, err := repro.NewPattern("random", algo, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), repro.NewStaticTraffic(pat, algo, 2, 2), repro.StaticPlan(100000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Delivered != 128 {
		t.Fatalf("delivered %d, want 128", res.Metrics.Delivered)
	}
	ae, err := repro.NewSimulator("atomic", repro.Config{Algorithm: algo, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ae.Run(context.Background(), repro.NewDynamicTraffic(pat, algo, 0.5, 3), repro.DynamicPlan(50, 200))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.InjectionRate() <= 0 {
		t.Fatal("atomic dynamic run measured nothing")
	}
}

func TestWriteQDGProducesDOT(t *testing.T) {
	algo, err := repro.NewAlgorithm("mesh-adaptive:3x3")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := repro.WriteQDG(&sb, algo); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "digraph") {
		t.Errorf("QDG output does not look like DOT: %.40q", sb.String())
	}
}

func TestVerifyAllPublicAlgorithms(t *testing.T) {
	for _, spec := range []string{
		"hypercube-adaptive:4", "hypercube-hung:4", "hypercube-ecube:4",
		"mesh-adaptive:3x3", "mesh-twophase:3x3", "mesh-xy:3x3",
		"shuffle-adaptive:4", "shuffle-static:4", "torus-adaptive:4x4",
	} {
		a, err := repro.NewAlgorithm(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := repro.VerifyDeadlockFree(a); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}

func TestDescribeNodeFacade(t *testing.T) {
	algo, err := repro.NewAlgorithm("hypercube-adaptive:3")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := repro.DescribeNode(algo, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"node 5", "qA", "qB", "dynamic"} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeNode output missing %q:\n%s", want, desc)
		}
	}
}

func TestLatencyObserverFacade(t *testing.T) {
	algo, err := repro.NewAlgorithm("hypercube-adaptive:5")
	if err != nil {
		t.Fatal(err)
	}
	col := repro.NewLatencyObserver()
	eng, err := repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 1, Observer: col})
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := repro.NewPattern("random", algo, 3)
	res, err := eng.Run(context.Background(), repro.NewStaticTraffic(pat, algo, 3, 7), repro.StaticPlan(100000))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if col.Count() != m.Delivered {
		t.Fatalf("collector saw %d deliveries, engine %d", col.Count(), m.Delivered)
	}
	if int64(col.Mean()*float64(col.Count())+0.5) != m.LatencySum {
		t.Errorf("collector mean %.3f inconsistent with engine sum %d", col.Mean(), m.LatencySum)
	}
	if col.Percentile(100) != m.LatencyMax {
		t.Errorf("collector max %d vs engine %d", col.Percentile(100), m.LatencyMax)
	}
}
