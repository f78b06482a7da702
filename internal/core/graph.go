package core

import (
	"fmt"
	"math/bits"

	"repro/internal/topology"
)

// GraphAdaptive routes minimally and fully adaptively over an arbitrary
// strongly-connected digraph, with deadlock freedom from the hop-ordered
// structured buffer pool ([Gun81]/[MS80], the same scheme HypercubeECube
// uses): a packet that has taken h hops occupies queue class h and every
// hop moves it to class h+1, so every static transition strictly increases
// the class and the queue dependency graph is acyclic by construction —
// for *any* topology, which is what makes the scheme derivable
// mechanically from generated adjacency. Unlike the e-cube baseline the
// full candidate set is offered at every step: all ports whose endpoint is
// one hop closer to the destination, i.e. the entire minimal next-hop set,
// so the algorithm is fully adaptive in the paper's sense. The cost is the
// paper's "excessive hardware" trade-off, diameter+1 queues per node —
// acceptable here because generated irregular networks (random-regular,
// dragonfly, fat-tree, hyperX) have tiny diameters by design.
//
// All candidates are static, so every state is already maximally adaptive;
// there is no room for dynamic links without widening the per-hop class
// fan-out beyond what PortMasks can encode.
//
// The routing relation over a static digraph is a pure function of
// (node, destination) and of one table, the all-pairs BFS distances, so
// that table is all the algorithm keeps: decisions are read off it when
// they are made. With row the n distances to dst (the table is
// destination-major, see topology.AllPairsBFS), port p of node u is a
// candidate iff row[nbr[u*ports+p]] == row[u]-1 — one load for the node
// and one per port, all inside one 2n-byte row that a run toward dst keeps
// in cache. Nothing is derived per pair: a next-hop table costs n^2 x ports
// to fill against the few decisions per node a run makes, and at the sizes
// where it would pay per decision it no longer fits the cache the row does
// (EXPERIMENTS.md, "What a graph spec costs").
type GraphAdaptive struct {
	t     topology.Topology
	diam  int
	n     int
	ports int
	// nbr and dist are the flat adjacency (node-major, None-padded) and
	// all-pairs distance (destination-major) tables; for a *topology.Graph
	// they are the topology's own backing store, costing nothing extra.
	nbr  []int32
	dist []int16
}

// NewGraphAdaptive builds the generic minimal-adaptive algorithm over any
// strongly-connected topology. The topology must report a finite Distance
// for every ordered pair (generated *topology.Graph instances guarantee
// this at construction) and its diameter must fit the 8-bit queue-class
// space. Over a *topology.Graph construction is free — the graph already
// holds both tables; any other topology is flattened and searched once.
func NewGraphAdaptive(t topology.Topology) (*GraphAdaptive, error) {
	if t == nil {
		return nil, fmt.Errorf("core: graph-adaptive: nil topology")
	}
	a := &GraphAdaptive{
		t:     t,
		n:     t.Nodes(),
		ports: t.Ports(),
	}
	if g, ok := t.(*topology.Graph); ok {
		a.diam = g.Diameter()
		a.nbr = g.FlatNeighbors()
		a.dist = g.Distances()
	} else {
		if a.n > topology.MaxGraphNodes {
			return nil, fmt.Errorf("core: graph-adaptive: %s has %d nodes, above the %d-node cap for distance compilation", t.Name(), a.n, topology.MaxGraphNodes)
		}
		a.nbr = topology.Flatten(t)
		var err error
		if a.dist, a.diam, err = topology.AllPairsBFS(a.nbr, a.n, a.ports); err != nil {
			return nil, fmt.Errorf("core: graph-adaptive: %s: %w", t.Name(), err)
		}
	}
	if a.diam > 254 {
		return nil, fmt.Errorf("core: graph-adaptive: %s has diameter %d, above the 254 hop-class limit", t.Name(), a.diam)
	}
	return a, nil
}

func (a *GraphAdaptive) Name() string                { return "graph-adaptive" }
func (a *GraphAdaptive) Topology() topology.Topology { return a.t }
func (a *GraphAdaptive) NumClasses() int             { return a.diam + 1 }
func (a *GraphAdaptive) ClassName(c QueueClass) string {
	return fmt.Sprintf("hop%d", c)
}

func (a *GraphAdaptive) Props() Props {
	return Props{Minimal: true, FullyAdaptive: true}
}

func (a *GraphAdaptive) MaxHops(src, dst int32) int {
	return int(a.dist[int(dst)*a.n+int(src)])
}

func (a *GraphAdaptive) Inject(src, dst int32) (QueueClass, uint32) {
	return 0, 0
}

// hops returns what a decision at node toward dst reads: the node's port
// row of the adjacency, the row of distances to dst, and the distance a
// minimal next hop must have.
func (a *GraphAdaptive) hops(node, dst int32) (nbr []int32, row []int16, closer int16) {
	nbr = a.nbr[int(node)*a.ports : (int(node)+1)*a.ports]
	row = a.dist[int(dst)*a.n : (int(dst)+1)*a.n]
	return nbr, row, row[node] - 1
}

func (a *GraphAdaptive) Candidates(node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, MinFree: 1, Deliver: true})
	}
	nbr, row, closer := a.hops(node, dst)
	for p, v := range nbr {
		// One unsigned compare rejects a None pad and proves i in range.
		if i := int(v); uint(i) < uint(len(row)) && row[i] == closer {
			buf = append(buf, Move{
				Node: v, Port: int16(p), Class: class + 1, Kind: Static, MinFree: 1,
			})
		}
	}
	return buf
}

// PortMask implements PortMaskRouter with the per-port encoding: every
// state except delivery is mask-shaped (uncredited static moves only, one
// shared target class per hop layer), as long as the ports fit the 32-bit
// masks; a wider topology routes through Candidates. Only the fields the
// per-port encoding defines are written (StaticMask, Dyn, Work, PerPort,
// and PortClass at set bits — everything a consumer of a PerPort mask with
// Dyn == 0 reads).
func (a *GraphAdaptive) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if a.ports > 32 || node == dst {
		return false
	}
	nbr, row, closer := a.hops(node, dst)
	mask := uint32(0)
	bit := uint32(1) // of the port being tested
	for _, v := range nbr {
		if i := int(v); uint(i) < uint(len(row)) { // not a None pad
			// Written so the compiler emits SETcc, not a branch: which ports
			// are minimal is data-dependent and mispredicts.
			b := uint32(0)
			if row[i] == closer {
				b = 1
			}
			mask |= bit & -b
		}
		bit <<= 1
	}
	pm.PerPort = true
	pm.StaticMask = mask
	pm.Dyn = 0
	pm.Work = 0
	pm.DynWork = 0
	nc := class + 1
	for m := mask; m != 0; m &= m - 1 {
		pm.PortClass[bits.TrailingZeros32(m)] = nc
	}
	return true
}
