package spec

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestTopologyRoundTrip(t *testing.T) {
	for _, tspec := range []string{
		"hypercube:6",
		"mesh:8x8",
		"torus:4x3x3",
		"shuffle:5",
		"ccc:3",
		"graph:random-regular:n=32,k=3,seed=7",
		"graph:dragonfly:a=4,g=9",
		"graph:hyperx:3x4",
		"graph:fat-tree:leaves=6,spines=3",
	} {
		if _, err := Topology(tspec); err != nil {
			t.Errorf("Topology(%q): %v", tspec, err)
		}
	}
}

func TestTopologyErrors(t *testing.T) {
	parseCases := []string{
		"hypercube",                           // no argument
		"hypercube:0",                         // out of range
		"hypercube:31",                        // out of range
		"mesh:0x4",                            // side too small
		"torus:2x2",                           // torus needs side >= 3
		"graph:dragonfly:a=4",                 // missing g
		"graph:dragonfly:a=4,g=10,x=1",        // unknown parameter
		"graph:dragonfly:a=4,g=10",            // a does not divide g-1
		"graph:dragonfly:a=x,g=9",             // non-integer
		"graph:random-regular:n=5,k=3,seed=1", // odd n*k
		"graph:hyperx:1x4",                    // side too small
	}
	for _, tspec := range parseCases {
		_, err := Topology(tspec)
		if err == nil {
			t.Errorf("Topology(%q) accepted", tspec)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Topology(%q): want *ParseError, got %T %v", tspec, err, err)
		} else if pe.Spec != tspec {
			t.Errorf("Topology(%q): error names spec %q", tspec, pe.Spec)
		}
	}
	for _, tspec := range []string{"ring:9", "graph:smallworld:n=10"} {
		_, err := Topology(tspec)
		var ue *UnknownNameError
		if !errors.As(err, &ue) {
			t.Errorf("Topology(%q): want *UnknownNameError, got %T %v", tspec, err, err)
		} else if ue.Kind != "topology" {
			t.Errorf("Topology(%q): error kind %q", tspec, ue.Kind)
		}
	}
}

func TestGraphAdaptiveAlgorithmSpec(t *testing.T) {
	a, err := Algorithm("graph-adaptive:dragonfly:a=4,g=9")
	if err != nil {
		t.Fatalf("Algorithm: %v", err)
	}
	if a.Topology().Nodes() != 36 {
		t.Errorf("nodes = %d, want 36", a.Topology().Nodes())
	}
	got, err := Format(a)
	if err != nil || got != "graph-adaptive:dragonfly:a=4,g=9" {
		t.Errorf("Format = %q, %v", got, err)
	}
	// Errors inside the embedded generator spec must name the algorithm
	// spec the caller wrote, not the internal "graph:..." rewrite.
	_, err = Algorithm("graph-adaptive:dragonfly:a=4,g=10")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T %v", err, err)
	}
	if pe.Spec != "graph-adaptive:dragonfly:a=4,g=10" {
		t.Errorf("error names spec %q", pe.Spec)
	}
}

func TestSplitJoinAlgo(t *testing.T) {
	cases := []struct{ algo, family, topo string }{
		{"hypercube-adaptive:10", "hypercube-adaptive", "hypercube:10"},
		{"mesh-xy:4x3x3", "mesh-xy", "mesh:4x3x3"},
		{"torus-adaptive:8x8", "torus-adaptive", "torus:8x8"},
		{"shuffle-eager:4", "shuffle-eager", "shuffle:4"},
		{"ccc-static:3", "ccc-static", "ccc:3"},
		{"graph-adaptive:dragonfly:a=4,g=9", "graph-adaptive", "graph:dragonfly:a=4,g=9"},
	}
	for _, c := range cases {
		family, topo, err := SplitAlgo(c.algo)
		if err != nil || family != c.family || topo != c.topo {
			t.Errorf("SplitAlgo(%q) = (%q, %q, %v), want (%q, %q)", c.algo, family, topo, err, c.family, c.topo)
		}
		joined, ok := JoinAlgo(c.family, c.topo)
		if !ok || joined != c.algo {
			t.Errorf("JoinAlgo(%q, %q) = (%q, %v), want %q", c.family, c.topo, joined, ok, c.algo)
		}
	}
	if f, topo, err := SplitAlgo("mesh-adaptive"); err != nil || f != "mesh-adaptive" || topo != "" {
		t.Errorf("SplitAlgo(bare family) = (%q, %q, %v)", f, topo, err)
	}
	if _, _, err := SplitAlgo("banyan-adaptive:4"); err == nil {
		t.Error("SplitAlgo accepted unknown family")
	}
	if _, ok := JoinAlgo("hypercube-adaptive", "mesh:4x4"); ok {
		t.Error("JoinAlgo accepted mismatched topology kind")
	}
}

func TestAlgorithmOn(t *testing.T) {
	cube := topology.NewHypercube(4)
	for family, want := range map[string]string{
		"hypercube-adaptive": "hypercube-adaptive",
		"hypercube-ecube":    "hypercube-ecube",
		"graph-adaptive":     "graph-adaptive",
	} {
		a, err := AlgorithmOn(family, cube)
		if err != nil {
			t.Errorf("AlgorithmOn(%q, hypercube): %v", family, err)
			continue
		}
		if a.Name() != want {
			t.Errorf("AlgorithmOn(%q).Name() = %q", family, a.Name())
		}
	}
	_, err := AlgorithmOn("mesh-adaptive", cube)
	var pe *ParseError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "cannot run on") {
		t.Errorf("AlgorithmOn kind mismatch: got %T %v", err, err)
	}
	var ue *UnknownNameError
	if _, err := AlgorithmOn("nope", cube); !errors.As(err, &ue) {
		t.Errorf("AlgorithmOn unknown family: got %T %v", err, err)
	}
}
