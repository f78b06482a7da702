package spec

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
)

// Topology specs name a network independently of any routing algorithm —
// the v2 RunSpec separation. The five closed-form families take the same
// size arguments their combined v1 algorithm specs did ("hypercube:10",
// "mesh:16x16"), and the "graph:" kind runs a generator for irregular
// networks ("graph:random-regular:n=256,k=4,seed=7").

// TopologyNames lists the spec templates accepted by Topology.
//
// random-regular draws whole pairings of the n*k link stubs and rejects any
// with a self-loop or a duplicate edge, which succeeds with probability
// about e^-(k^2-1)/4 per attempt; topology.NewRandomRegular makes 1000
// attempts, so k <= 4 always builds in practice, k=5 refuses about one
// seed in twelve, and larger k depends on a lucky seed.
func TopologyNames() []string {
	return []string{
		"hypercube:<dims>",
		"mesh:<side>x<side>[x...]",
		"torus:<side>x<side>[x...]",
		"shuffle:<dims>",
		"ccc:<dims>",
		"graph:random-regular:n=<n>,k=<k>,seed=<seed>",
		"graph:dragonfly:a=<a>,g=<g>",
		"graph:hyperx:<side>x<side>[x...]",
		"graph:fat-tree:leaves=<l>,spines=<s>",
	}
}

// Topology builds a network from a textual topology spec. Size bounds match
// the algorithm grammar (a "hypercube:31" fails exactly like
// "hypercube-adaptive:31" always did); generator errors (disconnected,
// over the node or port caps) surface as *ParseError naming the full spec.
func Topology(tspec string) (topology.Topology, error) {
	name, arg, ok := strings.Cut(tspec, ":")
	if !ok {
		return nil, badSpec(tspec, "topology spec needs an argument, e.g. %q", "hypercube:10")
	}
	dims := func(lo, hi int) (int, error) {
		d, err := strconv.Atoi(arg)
		if err != nil {
			return 0, badSpec(tspec, "bad dimension %q", arg)
		}
		if d < lo || d > hi {
			return 0, badSpec(tspec, "dimension %d out of range [%d,%d]", d, lo, hi)
		}
		return d, nil
	}
	switch name {
	case "hypercube":
		d, err := dims(1, 30)
		if err != nil {
			return nil, err
		}
		return topology.NewHypercube(d), nil
	case "mesh":
		s, err := parseShape(tspec, arg, 1)
		if err != nil {
			return nil, err
		}
		return topology.NewMesh(s...), nil
	case "torus":
		s, err := parseShape(tspec, arg, 3)
		if err != nil {
			return nil, err
		}
		return topology.NewTorus(s...), nil
	case "shuffle":
		d, err := dims(1, 26)
		if err != nil {
			return nil, err
		}
		return topology.NewShuffleExchange(d), nil
	case "ccc":
		d, err := dims(2, 16)
		if err != nil {
			return nil, err
		}
		return topology.NewCCC(d), nil
	case "graph":
		return generate(tspec, arg)
	}
	return nil, &UnknownNameError{Kind: "topology", Name: name, Valid: TopologyNames()}
}

// generate runs the irregular-network generator named by a "graph:" spec
// argument such as "dragonfly:a=4,g=9".
func generate(tspec, arg string) (*topology.Graph, error) {
	gen, params, _ := strings.Cut(arg, ":")
	wrap := func(g *topology.Graph, err error) (*topology.Graph, error) {
		if err != nil {
			return nil, &ParseError{Spec: tspec, Reason: err.Error()}
		}
		return g, nil
	}
	switch gen {
	case "random-regular":
		kv, err := parseKV(tspec, params, "n", "k", "seed")
		if err != nil {
			return nil, err
		}
		return wrap(topology.NewRandomRegular(int(kv["n"]), int(kv["k"]), kv["seed"]))
	case "dragonfly":
		kv, err := parseKV(tspec, params, "a", "g")
		if err != nil {
			return nil, err
		}
		return wrap(topology.NewDragonfly(int(kv["a"]), int(kv["g"])))
	case "hyperx":
		s, err := parseShape(tspec, params, 2)
		if err != nil {
			return nil, err
		}
		return wrap(topology.NewHyperX(s...))
	case "fat-tree":
		kv, err := parseKV(tspec, params, "leaves", "spines")
		if err != nil {
			return nil, err
		}
		return wrap(topology.NewFatTree(int(kv["leaves"]), int(kv["spines"])))
	}
	return nil, &UnknownNameError{Kind: "topology", Name: "graph:" + gen, Valid: TopologyNames()}
}

// parseShape parses a "<side>x<side>[x...]" argument with the same bounds
// the algorithm grammar applies.
func parseShape(spec, arg string, minSide int) ([]int, error) {
	parts := strings.Split(arg, "x")
	out := make([]int, len(parts))
	nodes := 1
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, badSpec(spec, "bad shape %q", arg)
		}
		if v < minSide {
			return nil, badSpec(spec, "side %d must be >= %d, got %d", i, minSide, v)
		}
		if nodes > maxNodes/v {
			return nil, badSpec(spec, "more than %d nodes", maxNodes)
		}
		nodes *= v
		out[i] = v
	}
	return out, nil
}

// parseKV parses a "k1=v1,k2=v2" argument requiring exactly the given keys,
// in any order, each an integer.
func parseKV(spec, arg string, keys ...string) (map[string]int64, error) {
	kv := make(map[string]int64, len(keys))
	if arg != "" {
		for _, pair := range strings.Split(arg, ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				return nil, badSpec(spec, "bad parameter %q, want key=value", pair)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, badSpec(spec, "bad value %q for %q", v, k)
			}
			if _, dup := kv[k]; dup {
				return nil, badSpec(spec, "duplicate parameter %q", k)
			}
			kv[k] = n
		}
	}
	for _, k := range keys {
		if _, ok := kv[k]; !ok {
			return nil, badSpec(spec, "missing parameter %q", k)
		}
	}
	if len(kv) != len(keys) {
		for k := range kv {
			known := false
			for _, want := range keys {
				if k == want {
					known = true
					break
				}
			}
			if !known {
				return nil, badSpec(spec, "unknown parameter %q", k)
			}
		}
	}
	return kv, nil
}

// impliedKind maps an algorithm family to the topology kind it runs on,
// or "" for an unknown family.
func impliedKind(family string) string {
	switch family {
	case "hypercube-adaptive", "hypercube-hung", "hypercube-ecube":
		return "hypercube"
	case "mesh-adaptive", "mesh-twophase", "mesh-xy":
		return "mesh"
	case "torus-adaptive":
		return "torus"
	case "shuffle-adaptive", "shuffle-static", "shuffle-eager":
		return "shuffle"
	case "ccc-adaptive", "ccc-static":
		return "ccc"
	case "graph-adaptive":
		return "graph"
	}
	return ""
}

// SplitAlgo decomposes a combined v1 algorithm spec into its bare family
// and the implied topology spec: "hypercube-adaptive:10" becomes
// ("hypercube-adaptive", "hypercube:10"), "graph-adaptive:dragonfly:a=4,g=9"
// becomes ("graph-adaptive", "graph:dragonfly:a=4,g=9"). A bare family with
// no size argument returns topoSpec == "" (the caller must supply the
// topology separately). Unknown families are an *UnknownNameError.
func SplitAlgo(algoSpec string) (family, topoSpec string, err error) {
	family, arg, sized := strings.Cut(algoSpec, ":")
	kind := impliedKind(family)
	if kind == "" {
		return "", "", &UnknownNameError{Kind: "algorithm", Name: family, Valid: AlgorithmNames()}
	}
	if !sized {
		return family, "", nil
	}
	return family, kind + ":" + arg, nil
}

// JoinAlgo is SplitAlgo's inverse: it reconstructs the combined v1
// algorithm spec from a bare family and a topology spec, or reports ok ==
// false when the pair has no v1 form (topology kind differing from the
// family's implied kind).
func JoinAlgo(family, topoSpec string) (string, bool) {
	kind := impliedKind(family)
	arg, found := strings.CutPrefix(topoSpec, kind+":")
	if kind == "" || !found {
		return "", false
	}
	return family + ":" + arg, true
}

// AlgorithmOn builds the routing algorithm of a bare family over an
// already-constructed topology — the v2 path, in which the network comes
// from Topology and the algo field carries no size. The topology must be of
// the family's kind (graph-adaptive runs on anything).
func AlgorithmOn(family string, t topology.Topology) (core.Algorithm, error) {
	mismatch := func() error {
		return badSpec(family, "algorithm cannot run on topology %s", t.Name())
	}
	switch family {
	case "graph-adaptive":
		a, err := core.NewGraphAdaptive(t)
		if err != nil {
			return nil, &ParseError{Spec: family, Reason: err.Error()}
		}
		return a, nil
	case "hypercube-adaptive", "hypercube-hung", "hypercube-ecube":
		h, ok := t.(*topology.Hypercube)
		if !ok {
			return nil, mismatch()
		}
		switch family {
		case "hypercube-adaptive":
			return core.NewHypercubeAdaptive(h.Dims()), nil
		case "hypercube-hung":
			return core.NewHypercubeHung(h.Dims()), nil
		default:
			return core.NewHypercubeECube(h.Dims()), nil
		}
	case "mesh-adaptive", "mesh-twophase", "mesh-xy":
		m, ok := t.(*topology.Mesh)
		if !ok {
			return nil, mismatch()
		}
		switch family {
		case "mesh-adaptive":
			return core.NewMeshAdaptive(m.Shape()...), nil
		case "mesh-twophase":
			return core.NewMeshTwoPhase(m.Shape()...), nil
		default:
			return core.NewMeshXY(m.Shape()...), nil
		}
	case "torus-adaptive":
		to, ok := t.(*topology.Torus)
		if !ok {
			return nil, mismatch()
		}
		return core.NewTorusAdaptive(to.Shape()...), nil
	case "shuffle-adaptive", "shuffle-static", "shuffle-eager":
		s, ok := t.(*topology.ShuffleExchange)
		if !ok {
			return nil, mismatch()
		}
		switch family {
		case "shuffle-adaptive":
			return core.NewShuffleExchangeAdaptive(s.Dims()), nil
		case "shuffle-static":
			return core.NewShuffleExchangeStatic(s.Dims()), nil
		default:
			return core.NewShuffleExchangeEager(s.Dims()), nil
		}
	case "ccc-adaptive", "ccc-static":
		c, ok := t.(*topology.CCC)
		if !ok {
			return nil, mismatch()
		}
		if family == "ccc-adaptive" {
			return core.NewCCCAdaptive(c.Dims()), nil
		}
		return core.NewCCCStatic(c.Dims()), nil
	}
	return nil, &UnknownNameError{Kind: "algorithm", Name: family, Valid: AlgorithmNames()}
}
