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
// fan-out beyond what PortMasks can encode. A node has at most MaxPorts
// ports.
//
// The routing relation over a static digraph is a pure function of
// (node, destination) and of one table, the all-pairs BFS distances, so
// that table is all the algorithm keeps: decisions are read off it when
// they are made. Port p of node u is a candidate iff its endpoint v has
// d(v, dst) == d(u, dst)-1. The table is bit-sliced (topology.DistTable):
// dst's block holds, for every node, P = bits.Len(diameter) words whose bit
// dst&63 spells that node's distance to dst, so a decision reads the node's
// P words and each neighbour's, all inside one n·P-word block that every
// packet toward one of its 64 destinations shares. The node's P words are
// decremented in place, borrow by borrow, for all 64 destinations at once,
// and each neighbour's P words are XORed with the result: a port is minimal
// iff bit dst&63 of that is clear. No distance is ever decoded and no
// branch depends on the data. Nothing is derived per pair: a next-hop
// table costs n^2 x ports to fill against the few decisions per node a run
// makes, and at the sizes where it would pay per decision it no longer
// fits the cache the distance table does (EXPERIMENTS.md, "What a graph
// spec costs").
type GraphAdaptive struct {
	Derived
	t     topology.Topology
	diam  int
	n     int
	ports int
	// nbr and dist are the flat adjacency (node-major, None-padded) and
	// all-pairs distance tables; for a *topology.Graph they are the
	// topology's own backing store, costing nothing extra.
	nbr  []int32
	dist topology.DistTable
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
	if t.Ports() > MaxPorts {
		return nil, fmt.Errorf("core: graph-adaptive: %s has %d ports, above the %d a port mask holds", t.Name(), t.Ports(), MaxPorts)
	}
	a := &GraphAdaptive{
		t:     t,
		n:     t.Nodes(),
		ports: t.Ports(),
	}
	a.Derived = Derive(a)
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
	return a.dist.At(int(src), int(dst))
}

func (a *GraphAdaptive) Inject(src, dst int32) (QueueClass, uint32) {
	return 0, 0
}

// hops returns what a decision at node toward dst reads: the node's port
// row of the adjacency, dst's block of the distance table, and dst's bit in
// each of the block's words.
func (a *GraphAdaptive) hops(node, dst int32) (nbr []int32, blk []uint64, sh uint) {
	return a.nbr[int(node)*a.ports : (int(node)+1)*a.ports], a.dist.Block(int(dst)), uint(dst) & 63
}

// closer returns the mask of the ports in nbr (at most MaxPorts) whose endpoint
// is one hop closer than node to the destination at bit sh of blk. The
// wanted distance d(node)-1 is w, the node's P words decremented: plane b
// flips where every lower plane is 0. A port is minimal iff its endpoint's
// words XOR w are 0 at bit sh. Ports are walked from the last, shifting
// each one's miss bit in at the bottom, and a None pad misses. Every plane
// count of the generated families (diameter below 16) has a loop of its
// own, reading plane b of endpoint v as pb[P*v] with pb = blk[b:] cut to
// one length, so that the unsigned compare that rejects a None pad also
// proves every load in range.
func (a *GraphAdaptive) closer(nbr []int32, blk []uint64, node int32, sh uint) uint64 {
	sh &= 63 // so the shifts below need no range check
	miss := uint64(0)
	switch p := uint(a.dist.Planes()); p {
	case 1:
		w0 := ^blk[node]
		for k := len(nbr) - 1; k >= 0; k-- {
			x := uint64(1)
			if i := uint(nbr[k]); i < uint(len(blk)) {
				x = (blk[i] ^ w0) >> sh & 1
			}
			miss = miss<<1 | x
		}
	case 2:
		m := len(blk) - 1
		p0, p1 := blk[:m], blk[1:][:m]
		j := 2 * uint(node)
		u0, u1 := p0[j], p1[j]
		w0, w1 := ^u0, u1^^u0
		for k := len(nbr) - 1; k >= 0; k-- {
			x := uint64(1)
			if i := 2 * uint(nbr[k]); i < uint(m) {
				x = ((p0[i] ^ w0) | (p1[i] ^ w1)) >> sh & 1
			}
			miss = miss<<1 | x
		}
	case 3:
		m := len(blk) - 2
		p0, p1, p2 := blk[:m], blk[1:][:m], blk[2:][:m]
		j := 3 * uint(node)
		u0, u1, u2 := p0[j], p1[j], p2[j]
		w0, w1, w2 := ^u0, u1^^u0, u2^^(u0|u1)
		for k := len(nbr) - 1; k >= 0; k-- {
			x := uint64(1)
			if i := 3 * uint(nbr[k]); i < uint(m) {
				x = ((p0[i] ^ w0) | (p1[i] ^ w1) | (p2[i] ^ w2)) >> sh & 1
			}
			miss = miss<<1 | x
		}
	case 4:
		m := len(blk) - 3
		p0, p1, p2, p3 := blk[:m], blk[1:][:m], blk[2:][:m], blk[3:][:m]
		j := 4 * uint(node)
		u0, u1, u2, u3 := p0[j], p1[j], p2[j], p3[j]
		w0, w1, w2, w3 := ^u0, u1^^u0, u2^^(u0|u1), u3^^(u0|u1|u2)
		for k := len(nbr) - 1; k >= 0; k-- {
			x := uint64(1)
			if i := 4 * uint(nbr[k]); i < uint(m) {
				x = ((p0[i] ^ w0) | (p1[i] ^ w1) | (p2[i] ^ w2) | (p3[i] ^ w3)) >> sh & 1
			}
			miss = miss<<1 | x
		}
	default: // at most 8 planes: NewGraphAdaptive refuses a diameter above 254
		var w [8]uint64
		borrow := ^uint64(0)
		for b, x := range blk[p*uint(node) : p*uint(node)+p] {
			w[b] = x ^ borrow
			borrow &^= x
		}
		for k := len(nbr) - 1; k >= 0; k-- {
			x := uint64(1)
			if i := p * uint(nbr[k]); i < uint(len(blk)) {
				m := uint64(0)
				for b, v := range blk[i : i+p] {
					m |= v ^ w[b]
				}
				x = m >> sh & 1
			}
			miss = miss<<1 | x
		}
	}
	return ^miss & (1<<uint(len(nbr)) - 1)
}

// PortMask states the scheme in the per-port encoding: every state but
// delivery is plain (static moves only, one shared target class per hop
// layer). Only the fields the per-port encoding defines are written
// (StaticMask, Dyn, Work, PerPort, and PortClass at set bits — everything a
// consumer of a PerPort mask with Dyn == 0 reads).
func (a *GraphAdaptive) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	nbr, blk, sh := a.hops(node, dst)
	mask := a.closer(nbr, blk, node, sh)
	pm.perPort(0)
	pm.StaticMask = mask
	nc := class + 1
	for m := mask; m != 0; m &= m - 1 {
		pm.PortClass[bits.TrailingZeros64(m)] = nc
	}
	return true
}
