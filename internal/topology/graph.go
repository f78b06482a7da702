package topology

import (
	"fmt"
	"math/bits"
	"slices"
)

// MaxGraphNodes caps the size of a generated irregular network. The Graph
// type keeps an all-pairs distance table (the only representation that works
// for networks with no closed-form metric), and that table is all a graph
// spec keeps — graph-adaptive routing reads its decisions straight off it —
// so the memory cost is 2 bytes x Nodes()^2; 4096 nodes is a 32 MiB table,
// the largest we let a spec ask for.
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
	dist  []int16 // n*n all-pairs BFS distances, destination-major
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

// AllPairsBFS computes the all-pairs hop-distance table of the digraph
// given by a flat node-major adjacency (nbr[u*ports+p] is the endpoint of
// port p of u, negative where unconnected; n at most MaxGraphNodes, so a
// distance fits int16). The table is destination-major: dist[v*n+s] is the
// length of the shortest directed path s -> v, so row v holds every node's
// distance to v — the one row a routing decision toward v reads (see
// core.GraphAdaptive). diam is the largest entry. It fails on the lowest
// (s, v) pair with no path, as soon as the batch of 64 sources containing s
// is done — the first batch for an undirected graph, so a caller that
// retries over candidate graphs pays little for a disconnected one.
//
// The search is bit-parallel: 64 sources advance together, one uint64 per
// node holding the sources whose frontier is on it, so an edge relaxation
// is one OR for all 64 and a level is one pass over the frontier. The
// frontier and the set of nodes reached this level are bitmaps walked in
// ascending order, so a level costs its frontier, not n (a 4096-node ring
// has 2048 levels of two nodes each). The layout serves the search too:
// the sources of a batch that reach v at one level write into one 128-byte
// run of row v, where a source-major table would take them 64 rows apart.
func AllPairsBFS(nbr []int32, n, ports int) (dist []int16, diam int, err error) {
	dist = make([]int16, n*n)
	seen := make([]uint64, n) // sources that have reached v
	cur := make([]uint64, n)  // sources that reached u at the previous level
	next := make([]uint64, n) // sources arriving at v over this level's edges
	words := (n + 63) / 64
	front := make([]uint64, words)   // nodes with cur != 0
	touched := make([]uint64, words) // nodes with next != 0
	for s0 := 0; s0 < n; s0 += 64 {
		w := min(64, n-s0)
		all := ^uint64(0) >> uint(64-w)
		clear(seen)
		for i := 0; i < w; i++ {
			seen[s0+i] = 1 << uint(i)
			cur[s0+i] = 1 << uint(i)
		}
		front[s0>>6] = all
		for d := 1; ; d++ {
			for wi, fw := range front {
				front[wi] = 0
				for ; fw != 0; fw &= fw - 1 {
					u := wi<<6 | bits.TrailingZeros64(fw)
					c := cur[u]
					cur[u] = 0
					for _, v := range nbr[u*ports : (u+1)*ports] {
						if v >= 0 {
							next[v] |= c
							touched[v>>6] |= 1 << uint(v&63)
						}
					}
				}
			}
			grew := false
			for wi, tw := range touched {
				touched[wi] = 0
				nf := uint64(0)
				for ; tw != 0; tw &= tw - 1 {
					v := wi<<6 | bits.TrailingZeros64(tw)
					fresh := next[v] &^ seen[v]
					next[v] = 0
					if fresh == 0 {
						continue
					}
					seen[v] |= fresh
					cur[v] = fresh
					nf |= tw & -tw
					batch := dist[v*n+s0 : v*n+s0+w]
					for ; fresh != 0; fresh &= fresh - 1 {
						batch[bits.TrailingZeros64(fresh)] = int16(d)
					}
				}
				if nf != 0 {
					front[wi] = nf
					grew = true
				}
			}
			if !grew {
				break
			}
			diam = max(diam, d)
		}
		missing := uint64(0)
		for _, sv := range seen {
			missing |= all &^ sv
		}
		if missing != 0 {
			i := bits.TrailingZeros64(missing)
			for v, sv := range seen {
				if sv>>uint(i)&1 == 0 {
					return nil, 0, fmt.Errorf("not strongly connected: no path %d -> %d", s0+i, v)
				}
			}
		}
	}
	return dist, diam, nil
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

// Distances returns the all-pairs BFS distance table, destination-major:
// Distances()[v*Nodes()+u] is Distance(u, v), so the distances of every
// node to v are one contiguous row. Like FlatNeighbors, the slice is the
// graph's backing store and must be treated as read-only.
func (g *Graph) Distances() []int16 { return g.dist }

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

func (g *Graph) Distance(a, b int) int { return int(g.dist[b*g.n+a]) }
