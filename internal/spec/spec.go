// Package spec parses the textual specifications the tools and the public
// facade accept — algorithm specs like "hypercube-adaptive:10" or
// "mesh-adaptive:16x16", and traffic-pattern specs like "hotspot:0.2" — and
// formats algorithms back into their canonical specs (Format is Parse's
// inverse). Errors are structured: an unrecognized family yields an
// *UnknownNameError listing the valid names, a malformed or out-of-range
// argument a *ParseError naming the offending spec.
package spec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// UnknownNameError reports a spec whose family name is not recognized.
type UnknownNameError struct {
	Kind  string   // what was being named: "algorithm", "pattern", "topology", "traffic"
	Name  string   // the unrecognized name
	Valid []string // the accepted names or spec templates
}

func (e *UnknownNameError) Error() string {
	return fmt.Sprintf("spec: unknown %s %q, valid: %s", e.Kind, e.Name, strings.Join(e.Valid, ", "))
}

// ParseError reports a recognized spec with a malformed or out-of-range
// argument.
type ParseError struct {
	Spec   string // the full spec as given
	Reason string // what is wrong with it
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("spec: %s: %s", e.Spec, e.Reason)
}

func badSpec(spec, format string, args ...any) error {
	return &ParseError{Spec: spec, Reason: fmt.Sprintf(format, args...)}
}

// AlgorithmNames lists the spec templates accepted by Algorithm.
func AlgorithmNames() []string {
	return []string{
		"hypercube-adaptive:<dims>",
		"hypercube-hung:<dims>",
		"hypercube-ecube:<dims>",
		"mesh-adaptive:<side>x<side>[x...]",
		"mesh-twophase:<side>x<side>[x...]",
		"mesh-xy:<side>x<side>[x...]",
		"shuffle-adaptive:<dims>",
		"shuffle-static:<dims>",
		"shuffle-eager:<dims>",
		"ccc-adaptive:<dims>",
		"ccc-static:<dims>",
		"torus-adaptive:<side>x<side>[x...]",
		"graph-adaptive:<generator-spec>",
	}
}

// PatternNames lists the spec templates accepted by Pattern.
func PatternNames() []string {
	return []string{
		"random", "complement", "transpose", "leveled", "bit-reversal",
		"mesh-transpose", "hotspot:<fraction>",
	}
}

// maxNodes caps the node count a textual spec may ask for, so a typo like
// "mesh-adaptive:100000x100000" fails fast instead of allocating.
const maxNodes = 1 << 24

// Algorithm builds a routing algorithm from a textual spec such as
// "hypercube-adaptive:10", "mesh-adaptive:16x16" or "torus-adaptive:8x8":
// the topology its family implies (SplitAlgo), built by Topology, under
// AlgorithmOn. Malformed or out-of-range sizes (e.g.
// "hypercube-adaptive:-1", "mesh-adaptive:0x5") are reported as errors
// naming the spec, never panics: Topology validates each family's bounds —
// hypercube and shuffle-exchange dimension, CCC order, minimum mesh/torus
// sides — before construction.
func Algorithm(spec string) (core.Algorithm, error) {
	if !strings.Contains(spec, ":") {
		return nil, badSpec(spec, "algorithm spec needs a size, e.g. %q", "hypercube-adaptive:10")
	}
	family, topoSpec, err := SplitAlgo(spec)
	if err != nil {
		return nil, err
	}
	t, err := Topology(topoSpec)
	if err != nil {
		return nil, renameSpecErr(err, spec)
	}
	a, err := AlgorithmOn(family, t)
	if err != nil {
		return nil, renameSpecErr(err, spec)
	}
	return a, nil
}

// Format renders the canonical spec of an algorithm built by this package:
// Algorithm(Format(a)) reconstructs an equivalent algorithm. It fails for
// algorithms over topologies the spec grammar cannot name.
func Format(a core.Algorithm) (string, error) {
	var arg string
	switch t := a.Topology().(type) {
	case *topology.ShuffleExchange:
		arg = strconv.Itoa(t.Dims())
	case *topology.CCC:
		arg = strconv.Itoa(t.Dims())
	case *topology.Mesh:
		arg = joinShape(t.Shape())
		if t.Cube() {
			arg = strconv.Itoa(t.Dims())
		}
	case *topology.Torus:
		arg = joinShape(t.Shape())
	case *topology.Graph:
		arg = t.Spec()
	default:
		return "", fmt.Errorf("spec: no spec syntax for topology %s", a.Topology().Name())
	}
	return a.Name() + ":" + arg, nil
}

// renameSpecErr rewrites the Spec field of a *ParseError produced while
// parsing a derived spec (e.g. the "graph:..." topology inside a
// "graph-adaptive:..." algorithm) so the error names the spec the caller
// actually wrote.
func renameSpecErr(err error, spec string) error {
	if pe, ok := err.(*ParseError); ok {
		return &ParseError{Spec: spec, Reason: pe.Reason}
	}
	return err
}

func joinShape(shape []int) string {
	parts := make([]string, len(shape))
	for i, s := range shape {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, "x")
}

// Pattern builds a traffic pattern from a textual spec for an algorithm's
// topology: "random", "complement", "transpose", "leveled", "bit-reversal",
// "mesh-transpose" and "hotspot:<fraction>". Hypercube-address patterns
// (complement, transpose, leveled, bit-reversal) require a power-of-two node
// count; mesh-transpose requires a square 2-dimensional mesh or torus.
func Pattern(pspec string, a core.Algorithm, seed int64) (traffic.Pattern, error) {
	topo := a.Topology()
	nodes := topo.Nodes()
	bits := func() (int, error) {
		b := 0
		for 1<<b < nodes {
			b++
		}
		if 1<<b != nodes {
			return 0, badSpec(pspec, "pattern needs a power-of-two node count, have %d", nodes)
		}
		return b, nil
	}
	name, arg, _ := strings.Cut(pspec, ":")
	switch name {
	case "random":
		return traffic.Random{Nodes: nodes}, nil
	case "complement":
		b, err := bits()
		if err != nil {
			return nil, err
		}
		return traffic.Complement{Bits: b}, nil
	case "transpose":
		b, err := bits()
		if err != nil {
			return nil, err
		}
		return traffic.Transpose{Bits: b}, nil
	case "leveled":
		b, err := bits()
		if err != nil {
			return nil, err
		}
		return traffic.NewLeveled(b, seed), nil
	case "bit-reversal":
		b, err := bits()
		if err != nil {
			return nil, err
		}
		return traffic.BitReversal{Bits: b}, nil
	case "mesh-transpose":
		side := 0
		switch t := topo.(type) {
		case *topology.Mesh:
			if t.Dims() == 2 && t.Shape()[0] == t.Shape()[1] {
				side = t.Shape()[0]
			}
		case *topology.Torus:
			if t.Dims() == 2 && t.Shape()[0] == t.Shape()[1] {
				side = t.Shape()[0]
			}
		}
		if side == 0 {
			return nil, badSpec(pspec, "mesh-transpose needs a square 2-dimensional mesh or torus, have %s", topo.Name())
		}
		return traffic.MeshTranspose{Side: side}, nil
	case "hotspot":
		frac := 0.2
		if arg != "" {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(v >= 0 && v <= 1) { // rejects NaN too
				return nil, badSpec(pspec, "bad hotspot fraction %q", arg)
			}
			frac = v
		}
		return traffic.Hotspot{Nodes: nodes, Hot: int32(nodes / 2), Fraction: frac}, nil
	}
	return nil, &UnknownNameError{Kind: "pattern", Name: name, Valid: PatternNames()}
}
