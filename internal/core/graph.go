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
// (node, destination), so NewGraphAdaptive compiles it to flat tables
// once: a destination-major uint32 mask table holding, for every
// (dst, node) pair, the set of ports one hop closer to dst (the full
// fully-adaptive candidate set), plus the flat neighbor and distance
// arrays needed so neither PortMask, Candidates, nor MaxHops touches the
// topology.Topology interface after construction. PortMask is then one
// table load plus the PortClass fill, and Candidates a mask-walk over the
// flat neighbor row. See routeTable for the memory tiering and
// WithoutRouteTable for the uncompiled scan path kept for A/B comparison.
type GraphAdaptive struct {
	t     topology.Topology
	diam  int
	n     int
	ports int
	// maskOK: Ports() fits the 32-bit port masks. Without it neither the
	// PortMasks encoding nor the compiled mask table can represent a
	// candidate set, so PortMask declines and routing scans.
	maskOK bool
	// scan routes through the interface scan path (compiled tables unused);
	// forced when maskOK is false, selected by WithoutRouteTable otherwise.
	scan bool
	// nbr and dist are the flat adjacency and all-pairs distance tables
	// (node-major and source-major respectively); for a *topology.Graph they
	// alias the topology's own backing store, costing nothing extra.
	nbr  []int32
	dist []int16
	tab  *routeTable
}

// NewGraphAdaptive builds the generic minimal-adaptive algorithm over any
// strongly-connected topology. The topology must report a finite Distance
// for every ordered pair (generated *topology.Graph instances guarantee
// this at construction) and its diameter must fit the 8-bit queue-class
// space. Construction compiles the routing relation into flat next-hop
// tables (see GraphAdaptive); options tune or disable the compilation.
func NewGraphAdaptive(t topology.Topology, opts ...GraphOption) (*GraphAdaptive, error) {
	if t == nil {
		return nil, fmt.Errorf("core: graph-adaptive: nil topology")
	}
	var o graphOptions
	o.fullLimit = RouteTableFullNodes
	for _, opt := range opts {
		opt(&o)
	}
	a := &GraphAdaptive{
		t:     t,
		n:     t.Nodes(),
		ports: t.Ports(),
	}
	a.maskOK = a.ports <= 32
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
	a.scan = o.scanOnly || !a.maskOK
	if !a.scan {
		a.tab = newRouteTable(a.nbr, a.dist, a.n, a.ports, o.fullLimit)
	}
	return a, nil
}

// GraphOption tunes NewGraphAdaptive's route-table compilation.
type GraphOption func(*graphOptions)

type graphOptions struct {
	scanOnly  bool
	fullLimit int
}

// GraphWithoutRouteTable disables the compiled next-hop tables: every
// routing decision rescans the ports through the topology interface, as
// the pre-compilation implementation did. Routing is bit-identical either
// way (the route-table property tests pin this); the option exists for
// those tests and for same-binary before/after benchmarking — see also
// sim.Config.DisableRouteTable, which applies it at engine construction.
func GraphWithoutRouteTable() GraphOption {
	return func(o *graphOptions) { o.scanOnly = true }
}

// GraphRouteTableFullLimit overrides the RouteTableFullNodes tier
// threshold: networks with more than limit nodes get lazily-built
// per-destination mask rows instead of the full table. Exists for the
// tier-equivalence tests and for memory tuning; limit <= 0 forces the lazy
// tier for every size.
func GraphRouteTableFullLimit(limit int) GraphOption {
	return func(o *graphOptions) { o.fullLimit = limit }
}

// WithoutRouteTable returns a view of the algorithm that routes through
// the uncompiled interface scan path — bit-identical decisions, no mask
// table (the flat adjacency and distance tables are shared, immutable).
// It implements RouteTableRouter for sim.Config.DisableRouteTable.
func (a *GraphAdaptive) WithoutRouteTable() Algorithm {
	if a.scan {
		return a
	}
	b := *a
	b.scan = true
	b.tab = nil
	return &b
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
	return int(a.dist[int(src)*a.n+int(dst)])
}

func (a *GraphAdaptive) Inject(src, dst int32) (QueueClass, uint32) {
	return 0, 0
}

func (a *GraphAdaptive) Candidates(node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, MinFree: 1, Deliver: true})
	}
	if a.scan {
		return a.scanCandidates(node, class, dst, buf)
	}
	base := int(node) * a.ports
	nc := class + 1
	for m := a.tab.mask(node, dst); m != 0; m &= m - 1 {
		p := bits.TrailingZeros32(m)
		buf = append(buf, Move{
			Node: a.nbr[base+p], Port: int16(p), Class: nc, Kind: Static, MinFree: 1,
		})
	}
	return buf
}

// scanCandidates is the uncompiled path: rescan every port through the
// topology interface, two dispatched calls per port. Kept reachable (see
// WithoutRouteTable) as the cross-check oracle and benchmark baseline, and
// as the only path for topologies wider than 32 ports.
func (a *GraphAdaptive) scanCandidates(node int32, class QueueClass, dst int32, buf []Move) []Move {
	remain := a.t.Distance(int(node), int(dst))
	for p := 0; p < a.ports; p++ {
		v := a.t.Neighbor(int(node), p)
		if v == topology.None || a.t.Distance(v, int(dst)) != remain-1 {
			continue
		}
		buf = append(buf, Move{
			Node: int32(v), Port: int16(p), Class: class + 1, Kind: Static, MinFree: 1,
		})
	}
	return buf
}

// PortMask implements PortMaskRouter with the per-port encoding: every
// state except delivery is mask-shaped (uncredited static moves only, one
// shared target class per hop layer). On the compiled path the static mask
// is a single table load; only the fields the per-port encoding defines
// are written (StaticMask, Dyn, Work, PerPort, and PortClass at set bits —
// everything a consumer of a PerPort mask with Dyn == 0 reads).
func (a *GraphAdaptive) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if !a.maskOK || node == dst {
		return false
	}
	if a.scan {
		return a.scanPortMask(node, class, dst, pm)
	}
	mask := a.tab.mask(node, dst)
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

// scanPortMask is PortMask's uncompiled path, the port rescan counterpart
// of scanCandidates.
func (a *GraphAdaptive) scanPortMask(node int32, class QueueClass, dst int32, pm *PortMasks) bool {
	*pm = PortMasks{PerPort: true}
	remain := a.t.Distance(int(node), int(dst))
	for p := 0; p < a.ports; p++ {
		v := a.t.Neighbor(int(node), p)
		if v == topology.None || a.t.Distance(v, int(dst)) != remain-1 {
			continue
		}
		pm.StaticMask |= 1 << uint(p)
		pm.PortClass[p] = class + 1
	}
	return true
}
