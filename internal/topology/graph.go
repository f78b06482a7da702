package topology

import (
	"fmt"
	"slices"
)

// MaxGraphNodes caps the size of a generated irregular network. The Graph
// type keeps an all-pairs distance table (the only representation that works
// for networks with no closed-form metric), and that table is all a graph
// spec keeps — graph-adaptive routing reads its decisions straight off it —
// so the memory cost is Nodes()^2 x bits.Len(Diameter())/8 bytes (see
// DistTable); 4096 nodes of diameter at most 15 is an 8 MiB table, the
// largest we let a spec ask for.
const MaxGraphNodes = 4096

// MaxGraphPorts caps the per-node port count of a generated network at the
// width of the engines' port bitmasks, so every Graph instance stays
// eligible for the PortMaskRouter fast path.
const MaxGraphPorts = 32

// Graph is an arbitrary strongly-connected digraph given by explicit
// adjacency — the escape hatch from the paper's five fixed families. A
// generator (NewRandomRegular, NewDragonfly, NewHyperX, NewFatTree, or
// NewGraph for hand-built adjacency) produces the instance once; after
// construction it is immutable, ships a precomputed all-pairs BFS distance
// table, and implements Topology exactly like the closed-form networks do,
// so the algorithms, the engines, the fault planner and the qdg verifier
// need no special cases.
type Graph struct {
	spec  string // canonical generator spec, e.g. "dragonfly:a=4,g=9"
	n     int
	ports int
	nbr   []int32 // n*ports neighbor table, None-padded
	rev   []int16 // n*ports reverse-port table, None where asymmetric
	dist  DistTable
	diam  int
}

// NewGraph builds a Graph from explicit adjacency: adj[u] lists the
// out-neighbors of u in port order. The digraph must be simple (no
// self-loops, no duplicate edges from one node), strongly connected, and
// within the MaxGraphNodes / MaxGraphPorts bounds. spec is the canonical
// generator spec recorded for Spec and Name.
func NewGraph(spec string, adj [][]int32) (*Graph, error) {
	n := len(adj)
	if n < 2 {
		return nil, fmt.Errorf("topology: graph %s: need at least 2 nodes, got %d", spec, n)
	}
	if n > MaxGraphNodes {
		return nil, fmt.Errorf("topology: graph %s: %d nodes exceeds the %d-node cap", spec, n, MaxGraphNodes)
	}
	ports := 0
	for _, row := range adj {
		if len(row) > ports {
			ports = len(row)
		}
	}
	if ports == 0 {
		return nil, fmt.Errorf("topology: graph %s: a node has no out-links", spec)
	}
	if ports > MaxGraphPorts {
		return nil, fmt.Errorf("topology: graph %s: %d ports exceeds the %d-port cap", spec, ports, MaxGraphPorts)
	}
	g := &Graph{spec: spec, n: n, ports: ports}
	g.nbr = make([]int32, n*ports)
	for i := range g.nbr {
		g.nbr[i] = None
	}
	for u, row := range adj {
		for p, v := range row {
			if v == None {
				continue
			}
			if int(v) < 0 || int(v) >= n {
				return nil, fmt.Errorf("topology: graph %s: node %d port %d leads to out-of-range node %d", spec, u, p, v)
			}
			if int(v) == u {
				return nil, fmt.Errorf("topology: graph %s: node %d has a self-loop", spec, u)
			}
			if slices.Contains(row[:p], v) {
				return nil, fmt.Errorf("topology: graph %s: node %d has duplicate links to %d", spec, u, v)
			}
			g.nbr[u*ports+p] = v
		}
	}
	g.rev = make([]int16, n*ports)
	for u := 0; u < n; u++ {
		for p := 0; p < ports; p++ {
			g.rev[u*ports+p] = int16(None)
			if v := g.nbr[u*ports+p]; v != None {
				g.rev[u*ports+p] = int16(g.PortTo(int(v), u))
			}
		}
	}
	var err error
	if g.dist, g.diam, err = AllPairsBFS(g.nbr, n, ports); err != nil {
		return nil, fmt.Errorf("topology: graph %s: %w", spec, err)
	}
	return g, nil
}

// Spec returns the canonical generator spec of the instance, e.g.
// "random-regular:n=256,k=4,seed=7" — the argument grammar of
// internal/spec's "graph:" topology kind.
func (g *Graph) Spec() string { return g.spec }

// FlatNeighbors returns the graph's node-major flat neighbor table:
// FlatNeighbors()[u*Ports()+p] is Neighbor(u, p), None-padded. The slice is
// the graph's own backing store, shared so graph-adaptive routing can index
// adjacency arithmetically without an interface call per port; callers
// must treat it as read-only.
func (g *Graph) FlatNeighbors() []int32 { return g.nbr }

// Distances returns the all-pairs BFS distance table:
// Distances().At(u, v) is Distance(u, v). Like FlatNeighbors, its words
// are the graph's backing store and must be treated as read-only.
func (g *Graph) Distances() DistTable { return g.dist }

// Diameter returns the longest shortest path over all ordered node pairs.
func (g *Graph) Diameter() int { return g.diam }

func (g *Graph) Name() string { return "graph(" + g.spec + ")" }
func (g *Graph) Nodes() int   { return g.n }
func (g *Graph) Ports() int   { return g.ports }

func (g *Graph) Neighbor(u, p int) int {
	if u < 0 || u >= g.n || p < 0 || p >= g.ports {
		return None
	}
	return int(g.nbr[u*g.ports+p])
}

func (g *Graph) ReversePort(u, p int) int {
	if u < 0 || u >= g.n || p < 0 || p >= g.ports {
		return None
	}
	return int(g.rev[u*g.ports+p])
}

func (g *Graph) PortTo(u, v int) int {
	for p := 0; p < g.ports; p++ {
		if g.nbr[u*g.ports+p] == int32(v) {
			return p
		}
	}
	return None
}

func (g *Graph) Distance(a, b int) int { return g.dist.At(a, b) }
