package core

import "sync/atomic"

// RouteTableFullNodes is the route-table memory tier threshold: networks
// with at most this many nodes get the full destination-major n*n uint32
// mask table at construction (2048^2 x 4 B = 16 MB worst case); larger
// networks — up to the 4096-node generator cap, where a full table would
// cost 64 MB — get deterministic per-destination rows built lazily, a
// block of 32 adjacent destinations on the first use of any of them, so
// memory scales with the destination set actually routed to, rounded up
// to blocks. Tests and memory tuning override it per instance with
// GraphRouteTableFullLimit.
const RouteTableFullNodes = 2048

// RouteTableRouter is implemented by algorithms that compile their routing
// relation into flat next-hop tables at construction (GraphAdaptive).
// WithoutRouteTable returns an equivalent algorithm routing through the
// uncompiled scan path: decisions are bit-identical, only the per-decision
// cost differs. sim.Config.DisableRouteTable applies it at engine
// construction, mirroring DisablePortMask, so both paths stay reachable in
// one binary for A/B benchmarking and cross-check tests.
type RouteTableRouter interface {
	Algorithm
	WithoutRouteTable() Algorithm
}

// routeBlock is the number of destinations the mask fill handles together.
// 32 int16 distances are one 64-byte line of the source-major distance
// table, so gathering 32 adjacent destination columns reads one line per
// source row.
const routeBlock = 32

// routeTable is the compiled form of the minimal fully-adaptive routing
// relation over a static digraph: mask(u, dst) is the set of ports of u
// whose endpoint is one hop closer to dst — a pure function of the
// adjacency, so it is computed once here and the hot path is a single
// load. Rows are destination-major (all nodes' masks for one destination
// contiguous); they are filled a routeBlock of destinations at a time,
// which is also the unit the lazy tier builds.
type routeTable struct {
	n     int
	ports int
	nbr   []int32 // flat node-major adjacency, shared with GraphAdaptive
	dist  []int16 // flat source-major distances, shared with GraphAdaptive
	// full is the complete n*n table (full[dst*n+u]), nil on the lazy tier.
	full []uint32
	// rows holds the lazy tier's per-destination rows; the first touch of a
	// destination builds the rows of its whole routeBlock. A row's content
	// is a pure function of the graph, so the first-touch race is benign:
	// every builder produces identical bits and each row's CompareAndSwap
	// keeps exactly one canonical slice; concurrent engine workers therefore
	// stay bit-deterministic. After a block's first use the path is
	// allocation-free, like the full tier.
	rows []atomic.Pointer[[]uint32]
	// spare parks the lazy tier's column scratch between block builds, so
	// a run that touches every block allocates it once, not once per block;
	// a builder that finds it taken allocates its own.
	spare atomic.Pointer[[]int16]
}

// newRouteTable compiles the mask table over the given flat adjacency and
// distance tables, choosing the tier by fullLimit.
func newRouteTable(nbr []int32, dist []int16, n, ports, fullLimit int) *routeTable {
	t := &routeTable{n: n, ports: ports, nbr: nbr, dist: dist}
	if n <= fullLimit {
		t.full = make([]uint32, n*n)
		cols := make([]int16, routeBlock*n)
		for d0 := 0; d0 < n; d0 += routeBlock {
			w := min(routeBlock, n-d0)
			t.fillBlock(d0, w, t.full[d0*n:(d0+w)*n], cols)
		}
	} else {
		t.rows = make([]atomic.Pointer[[]uint32], n)
	}
	return t
}

// fillBlock computes the masks of every node toward the w <= routeBlock
// destinations starting at d0: bit p of out[j*n+u] is set iff port p of u
// leads one hop closer to d0+j. A destination's own entry stays 0
// (delivery is not a port move). cols is scratch for w*n distances.
func (t *routeTable) fillBlock(d0, w int, out []uint32, cols []int16) {
	n, ports := t.n, t.ports
	// Gather the block's w columns of the source-major table, one line per
	// source, so the port loop below reads distances to one destination from
	// a contiguous, cache-resident column rather than down a stride-n column.
	for u := 0; u < n; u++ {
		for j, d := range t.dist[u*n+d0 : u*n+d0+w] {
			cols[j*n+u] = d
		}
	}
	for j := 0; j < w; j++ {
		col := cols[j*n : (j+1)*n]
		row := out[j*n : (j+1)*n]
		for u := range row {
			closer := col[u] - 1
			m := uint32(0)
			for p, v := range t.nbr[u*ports : (u+1)*ports] {
				if v < 0 {
					continue
				}
				// Written so the compiler emits SETcc, not a branch: which
				// ports are minimal is data-dependent and mispredicts.
				b := uint32(0)
				if col[v] == closer {
					b = 1
				}
				m |= b << (uint(p) % 32)
			}
			row[u] = m
		}
	}
}

// mask returns the minimal-port candidate set of node toward dst.
func (t *routeTable) mask(node, dst int32) uint32 {
	if t.full != nil {
		return t.full[int(dst)*t.n+int(node)]
	}
	if p := t.rows[dst].Load(); p != nil {
		return (*p)[node]
	}
	return t.buildBlock(dst)[node]
}

// buildBlock is the lazy tier's slow path, kept out of mask so the hot path
// inlines: it builds the rows of dst's routeBlock and publishes each one
// that is still missing. See routeTable.rows for why the race is benign.
func (t *routeTable) buildBlock(dst int32) []uint32 {
	n := t.n
	d0 := int(dst) &^ (routeBlock - 1)
	w := min(routeBlock, n-d0)
	slab := make([]uint32, w*n)
	cols := t.spare.Swap(nil)
	if cols == nil {
		c := make([]int16, routeBlock*n)
		cols = &c
	}
	t.fillBlock(d0, w, slab, *cols)
	t.spare.Store(cols)
	rows := make([][]uint32, w)
	for j := range rows {
		rows[j] = slab[j*n : (j+1)*n : (j+1)*n]
		t.rows[d0+j].CompareAndSwap(nil, &rows[j])
	}
	return *t.rows[dst].Load()
}
