package topology

import (
	"fmt"
	"slices"

	"repro/internal/xrand"
)

// Generators for irregular interconnection networks. Each returns a *Graph
// whose adjacency is a pure function of its parameters: the random-regular
// generator derives every coin flip from the seed through xrand, and the
// structured generators (dragonfly, hyperx, fat-tree) are deterministic by
// construction, so the same spec always yields the same instance — the
// property that lets a generated topology live inside a fingerprinted
// RunSpec.

// randomRegularAttempts is NewRandomRegular's retry budget. A uniform
// pairing of n*k stubs is simple (no self-loop, no duplicate edge) with
// probability about e^-(k^2-1)/4 — 14% at k=3, 2.4% at k=4, 0.25% at k=5,
// 1.6e-4 at k=6 — and the whole pairing is rejected otherwise, so 1000
// attempts fail about one k=4 seed in 10^10 and one k=5 seed in twelve;
// beyond that a spec depends on a lucky seed. An attempt costs one
// permutation of the stubs and no allocation, which is what keeps a
// hopeless spec (the daemon generates on client input) cheap to refuse.
const randomRegularAttempts = 1000

// NewRandomRegular generates a connected random k-regular undirected graph
// on n nodes (every link bidirectional) by the configuration model: n*k
// stubs are shuffled with a seeded generator and paired off; pairings with
// self-loops or duplicate edges, and graphs that come out disconnected, are
// rejected and retried with a seed derived from the attempt number, so the
// result is simple, connected, and deterministic in (n, k, seed). See
// randomRegularAttempts for which k the retry budget can serve.
func NewRandomRegular(n, k int, seed int64) (*Graph, error) {
	switch {
	case n < 4 || n > MaxGraphNodes:
		return nil, fmt.Errorf("topology: random-regular: n must be in [4,%d], got %d", MaxGraphNodes, n)
	case k < 2 || k > MaxGraphPorts:
		return nil, fmt.Errorf("topology: random-regular: k must be in [2,%d], got %d", MaxGraphPorts, k)
	case k >= n:
		return nil, fmt.Errorf("topology: random-regular: k=%d needs more than %d nodes", k, n)
	case n*k%2 != 0:
		return nil, fmt.Errorf("topology: random-regular: n*k must be even, got %dx%d", n, k)
	}
	spec := fmt.Sprintf("random-regular:n=%d,k=%d,seed=%d", n, k, seed)
	stubs := make([]int32, n*k)
	flat := make([]int32, n*k) // node u's neighbors so far: flat[u*k : u*k+deg[u]]
	deg := make([]int, n)
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = flat[u*k : (u+1)*k]
	}
attempts:
	for attempt := 0; attempt < randomRegularAttempts; attempt++ {
		rng := xrand.New(seed, int32(attempt))
		rng.Perm(stubs)
		clear(deg)
		for i := 0; i < len(stubs); i += 2 {
			u, v := int(stubs[i])/k, int(stubs[i+1])/k
			if u == v || slices.Contains(flat[u*k:u*k+deg[u]], int32(v)) {
				continue attempts // self-loop or duplicate edge: reject the pairing
			}
			flat[u*k+deg[u]], flat[v*k+deg[v]] = int32(v), int32(u)
			deg[u]++
			deg[v]++
		}
		// Ports in ascending neighbor order, so the instance depends only on
		// the pairing, never on the order its edges were drawn in.
		for _, row := range adj {
			slices.Sort(row)
		}
		g, err := NewGraph(spec, adj)
		if err != nil {
			continue // disconnected: retry with the next derived stream
		}
		return g, nil
	}
	return nil, fmt.Errorf("topology: random-regular: no simple connected pairing in %d attempts for n=%d k=%d seed=%d (a pairing is simple with probability about e^-(k^2-1)/4, so larger k needs a lucky seed)",
		randomRegularAttempts, n, k, seed)
}

// NewDragonfly generates the canonical two-level dragonfly of Kim et al.
// (ISCA 2008) at router granularity: g groups of a routers, each group a
// full local mesh, and one bidirectional global link between every pair of
// groups. Each router hosts h = (g-1)/a global links (g-1 must divide
// evenly), with group gi's global channel c (0 <= c < g-1) leading to group
// (gi+1+c) mod g from router c/h — the standard relative-group wiring, which
// makes both endpoints derive the same link. Ports 0..a-2 are local,
// a-1..a-2+h global.
func NewDragonfly(a, g int) (*Graph, error) {
	switch {
	case a < 2:
		return nil, fmt.Errorf("topology: dragonfly: a must be >= 2, got %d", a)
	case g < 3:
		return nil, fmt.Errorf("topology: dragonfly: g must be >= 3, got %d", g)
	case (g-1)%a != 0:
		return nil, fmt.Errorf("topology: dragonfly: a=%d must divide g-1=%d (h=(g-1)/a global links per router)", a, g-1)
	}
	h := (g - 1) / a
	n := a * g
	if n > MaxGraphNodes {
		return nil, fmt.Errorf("topology: dragonfly: %d routers exceeds the %d-node cap", n, MaxGraphNodes)
	}
	if a-1+h > MaxGraphPorts {
		return nil, fmt.Errorf("topology: dragonfly: %d ports exceeds the %d-port cap", a-1+h, MaxGraphPorts)
	}
	spec := fmt.Sprintf("dragonfly:a=%d,g=%d", a, g)
	adj := make([][]int32, n)
	for gi := 0; gi < g; gi++ {
		for j := 0; j < a; j++ {
			u := gi*a + j
			row := make([]int32, 0, a-1+h)
			for j2 := 0; j2 < a; j2++ { // local full mesh
				if j2 != j {
					row = append(row, int32(gi*a+j2))
				}
			}
			for l := 0; l < h; l++ { // global channels hosted by this router
				c := j*h + l
				gj := (gi + 1 + c) % g
				cBack := (g - 2 - c) % g // index of the same channel on the peer side
				row = append(row, int32(gj*a+cBack/h))
			}
			adj[u] = row
		}
	}
	return NewGraph(spec, adj)
}

// NewHyperX generates a HyperX / flattened-butterfly network: nodes on a
// k-dimensional integer lattice with every pair of nodes that differ in
// exactly one coordinate directly connected. Ports are ordered low
// dimension first, within a dimension by ascending peer coordinate. The
// diameter equals the number of dimensions.
func NewHyperX(shape ...int) (*Graph, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("topology: hyperx: need at least one dimension")
	}
	n, ports := 1, 0
	for i, s := range shape {
		if s < 2 {
			return nil, fmt.Errorf("topology: hyperx: side %d must be >= 2, got %d", i, s)
		}
		if n > MaxGraphNodes/s {
			return nil, fmt.Errorf("topology: hyperx: more than %d nodes", MaxGraphNodes)
		}
		n *= s
		ports += s - 1
	}
	if ports > MaxGraphPorts {
		return nil, fmt.Errorf("topology: hyperx: %d ports exceeds the %d-port cap", ports, MaxGraphPorts)
	}
	spec := "hyperx:"
	for i, s := range shape {
		if i > 0 {
			spec += "x"
		}
		spec += fmt.Sprint(s)
	}
	adj := make([][]int32, n)
	for u := 0; u < n; u++ {
		row := make([]int32, 0, ports)
		stride := 1
		for _, s := range shape {
			c := u / stride % s
			for c2 := 0; c2 < s; c2++ {
				if c2 != c {
					row = append(row, int32(u+(c2-c)*stride))
				}
			}
			stride *= s
		}
		adj[u] = row
	}
	return NewGraph(spec, adj)
}

// NewFatTree generates a two-level folded-Clos (leaf-spine) network:
// `leaves` leaf routers each connected to every one of `spines` spine
// routers by a bidirectional link. Leaves are nodes 0..leaves-1, spines
// follow. Any leaf pair is two hops apart through any spine, so the network
// is the canonical multi-path diameter-2 fabric.
func NewFatTree(leaves, spines int) (*Graph, error) {
	switch {
	case leaves < 2:
		return nil, fmt.Errorf("topology: fat-tree: leaves must be >= 2, got %d", leaves)
	case spines < 1:
		return nil, fmt.Errorf("topology: fat-tree: spines must be >= 1, got %d", spines)
	case leaves > MaxGraphPorts || spines > MaxGraphPorts:
		return nil, fmt.Errorf("topology: fat-tree: %dx%d exceeds the %d-port cap", leaves, spines, MaxGraphPorts)
	}
	n := leaves + spines
	spec := fmt.Sprintf("fat-tree:leaves=%d,spines=%d", leaves, spines)
	adj := make([][]int32, n)
	for l := 0; l < leaves; l++ {
		row := make([]int32, spines)
		for s := 0; s < spines; s++ {
			row[s] = int32(leaves + s)
		}
		adj[l] = row
	}
	for s := 0; s < spines; s++ {
		row := make([]int32, leaves)
		for l := 0; l < leaves; l++ {
			row[l] = int32(l)
		}
		adj[leaves+s] = row
	}
	return NewGraph(spec, adj)
}
