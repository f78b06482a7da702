// Package topology provides the static interconnection networks used by the
// routing algorithms and the simulator: k-dimensional meshes (the binary
// hypercube is the mesh whose sides are all 2), k-dimensional tori,
// shuffle-exchange networks, cube-connected cycles and generated graphs.
//
// Nodes are numbered 0..Nodes()-1. Every node exposes a fixed list of
// directed output ports, enumerated "from low to high dimensions" exactly as
// the node model of the paper requires (Section 7.1: "each node fills its
// output buffers from low to high dimensions"). Port p of node u leads to
// node Neighbor(u, p); the reverse port is ReversePort(u, p). A port with no
// link attached (mesh borders) reports Neighbor == -1.
package topology

import "fmt"

// None marks a missing neighbor (e.g. beyond a mesh border).
const None = -1

// Topology is a static network of Nodes() nodes. Implementations must be
// immutable after construction and safe for concurrent use.
type Topology interface {
	// Name returns a short human-readable identifier such as "hypercube(10)".
	Name() string

	// Nodes returns the number of nodes in the network.
	Nodes() int

	// Ports returns the number of output ports per node. Every node has the
	// same port count; ports without an attached link return Neighbor == None.
	Ports() int

	// Neighbor returns the node reached from u through output port p, or
	// None if the port is not connected.
	Neighbor(u, p int) int

	// ReversePort returns the port of Neighbor(u,p) that leads back to u, or
	// None if the link is unidirectional (shuffle links) or absent.
	ReversePort(u, p int) int

	// PortTo returns the lowest-numbered port of u that leads to v, or None.
	PortTo(u, v int) int

	// Distance returns the length of a shortest path from a to b following
	// directed links.
	Distance(a, b int) int
}

// Flatten snapshots the adjacency of any Topology into the node-major flat
// neighbor table graph-adaptive routing indexes arithmetically:
// Flatten(t)[u*t.Ports()+p] is t.Neighbor(u, p), None-padded. Graph
// instances hand out their internal table through FlatNeighbors without
// copying; Flatten is the generic export for every other implementation
// (one interface call per port, once, at construction time).
func Flatten(t Topology) []int32 {
	if g, ok := t.(*Graph); ok {
		return g.FlatNeighbors()
	}
	n, ports := t.Nodes(), t.Ports()
	nbr := make([]int32, n*ports)
	for u := 0; u < n; u++ {
		for p := 0; p < ports; p++ {
			nbr[u*ports+p] = int32(t.Neighbor(u, p))
		}
	}
	return nbr
}

// Degree returns the number of connected output ports of u.
func Degree(t Topology, u int) int {
	d := 0
	for p := 0; p < t.Ports(); p++ {
		if t.Neighbor(u, p) != None {
			d++
		}
	}
	return d
}

// Validate performs structural sanity checks that every Topology
// implementation must satisfy. It is used by tests and by the experiment
// harness before long runs.
func Validate(t Topology) error {
	n := t.Nodes()
	if n <= 0 {
		return fmt.Errorf("topology %s: non-positive node count %d", t.Name(), n)
	}
	for u := 0; u < n; u++ {
		for p := 0; p < t.Ports(); p++ {
			v := t.Neighbor(u, p)
			if v == None {
				continue
			}
			if v < 0 || v >= n {
				return fmt.Errorf("topology %s: node %d port %d leads to out-of-range node %d", t.Name(), u, p, v)
			}
			if rp := t.ReversePort(u, p); rp != None {
				if got := t.Neighbor(v, rp); got != u {
					return fmt.Errorf("topology %s: reverse port mismatch: %d --p%d--> %d --p%d--> %d (want %d)",
						t.Name(), u, p, v, rp, got, u)
				}
			}
			if q := t.PortTo(u, v); q == None {
				return fmt.Errorf("topology %s: PortTo(%d,%d) = None but port %d connects them", t.Name(), u, v, p)
			}
		}
	}
	return nil
}

// BFSDistance computes the shortest directed path length from a to b by
// breadth-first search. Implementations with closed-form distances use it as
// a test oracle; ShuffleExchange uses it directly (memoized).
func BFSDistance(t Topology, a, b int) int {
	if a == b {
		return 0
	}
	n := t.Nodes()
	dist := make([]int16, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(a))
	for len(queue) > 0 {
		u := int(queue[0])
		queue = queue[1:]
		for p := 0; p < t.Ports(); p++ {
			v := t.Neighbor(u, p)
			if v == None || dist[v] >= 0 {
				continue
			}
			dist[v] = dist[u] + 1
			if v == b {
				return int(dist[v])
			}
			queue = append(queue, int32(v))
		}
	}
	return -1
}
