package topology

import (
	"fmt"
	"math/bits"
)

// DistTable is an all-pairs hop-distance table, bit-sliced. Destinations
// are taken in blocks of 64; for each block and each node u the table keeps
// Planes() uint64 words, and bit i of word b is bit b of the distance from u
// to the block's i-th destination. The table is about n²·Planes()/8 bytes, and
// Planes() is bits.Len of the diameter — the fewest planes that hold every
// distance — so a 4096-node network of diameter at most 15 takes 8 MiB.
//
// A routing decision toward t reads only t's block: node u's distance and
// each out-neighbour's are Planes() words each, all inside one
// n·Planes()-word run that every packet headed for any of the block's 64
// destinations shares (see core.GraphAdaptive).
type DistTable struct {
	n      int
	planes int
	words  []uint64 // block-major: words[((t>>6)*n+u)*planes+b]
}

// Planes returns the number of bit planes, bits.Len of the largest
// distance.
func (d DistTable) Planes() int { return d.planes }

// Block returns the n·Planes() words of the block holding destination t:
// Block(t)[u*Planes()+b] carries bit b of u's distance to every destination
// of the block, t's at bit t&63.
func (d DistTable) Block(t int) []uint64 {
	i := (t >> 6) * d.n * d.planes
	return d.words[i : i+d.n*d.planes]
}

// At returns the length of the shortest directed path u -> t.
func (d DistTable) At(u, t int) int {
	row := d.words[((t>>6)*d.n+u)*d.planes:][:d.planes]
	sh := uint(t) & 63
	h := 0
	for b, w := range row {
		h |= int(w>>sh&1) << b
	}
	return h
}

// replane returns the table's words laid out with p planes and room for
// capBlocks blocks, holding its first used blocks.
func (d DistTable) replane(p, used, capBlocks int) []uint64 {
	w := make([]uint64, used*d.n*p, capBlocks*d.n*p)
	for i := 0; i < used*d.n; i++ {
		copy(w[i*p:], d.words[i*d.planes:(i+1)*d.planes])
	}
	return w
}

// AllPairsBFS computes the all-pairs hop-distance table of the digraph
// given by a flat node-major adjacency (nbr[u*ports+p] is the endpoint of
// port p of u, negative where unconnected). diam is the largest distance.
// It fails on the lowest (s, v) pair with no path s -> v, as soon as the
// block of 64 destinations holding the first stranded one is done — the
// first block for an undirected graph, so a caller that retries over
// candidate graphs pays little for a disconnected one.
//
// The search runs backwards from 64 destinations at a time over the
// in-edges, one uint64 per node holding the destinations it has reached,
// so an edge relaxation is one OR for all 64 and a level is one pass over
// the frontier (see sweep). Recording a level costs at most Planes() ORs
// of a node's newly reached destinations into its words of the block, not
// one store per pair. The planes start at one and grow by re-layout when a
// level first reaches 2^Planes(); the first block is searched before the
// whole table is allocated, so the growth that nearly every network goes
// through costs a copy of one block.
func AllPairsBFS(nbr []int32, n, ports int) (dist DistTable, diam int, err error) {
	blocks := (n + 63) / 64
	s := newSweep(n)
	s.start, s.adj = compress(nbr, n, ports, true)
	dist = DistTable{n: n, planes: 1, words: make([]uint64, n)}
	for b := 0; b < blocks; b++ {
		if b == 1 {
			dist.words = dist.replane(dist.planes, 1, blocks)
		}
		dist.words = dist.words[:(b+1)*n*dist.planes]
		all, depth := s.run(b*64, min(64, n-b*64), &dist)
		diam = max(diam, depth)
		for _, sv := range s.seen {
			if sv != all {
				return DistTable{}, 0, noPath(nbr, n, ports, s)
			}
		}
	}
	return dist, diam, nil
}

// noPath names the lowest (s, v) pair of a digraph with no path s -> v: a
// forward search from 64 sources at a time, stopped at the first batch
// with a source that misses a node.
func noPath(nbr []int32, n, ports int, s *sweep) error {
	s.start, s.adj = compress(nbr, n, ports, false)
	for s0 := 0; s0 < n; s0 += 64 {
		all, _ := s.run(s0, min(64, n-s0), nil)
		missing := uint64(0)
		for _, sv := range s.seen {
			missing |= all &^ sv
		}
		if missing != 0 {
			i := bits.TrailingZeros64(missing)
			for v, sv := range s.seen {
				if sv>>uint(i)&1 == 0 {
					return fmt.Errorf("not strongly connected: no path %d -> %d", s0+i, v)
				}
			}
		}
	}
	panic("topology: noPath called on a strongly connected digraph")
}

// compress returns the digraph's adjacency, or with transpose set that of
// its reverse, as compressed rows: the nodes one hop from u (or one hop
// into u) are adj[start[u]:start[u+1]], in port order (ascending u).
func compress(nbr []int32, n, ports int, transpose bool) (start, adj []int32) {
	start = make([]int32, n+1)
	for i, v := range nbr {
		if v >= 0 {
			if transpose {
				start[v+1]++
			} else {
				start[i/ports+1]++
			}
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	adj = make([]int32, start[n])
	next := append([]int32(nil), start[:n]...)
	for i, v := range nbr {
		if v < 0 {
			continue
		}
		u := int32(i / ports)
		if transpose {
			u, v = v, u
		}
		adj[next[u]] = v
		next[u]++
	}
	return start, adj
}

// sweep advances up to 64 breadth-first searches at once over a compressed
// adjacency: one uint64 per node holds the roots whose frontier is on it,
// relaxing an edge ORs it into the far end, and the roots newly reached
// there are the OR minus the ones it has seen. The frontier and the set of
// nodes reached this level are bitmaps walked in ascending order, so a
// level costs its frontier, not n (a 4096-node ring has 2048 levels of two
// nodes each).
type sweep struct {
	start, adj []int32
	seen       []uint64 // roots that have reached u
	cur        []uint64 // roots that reached u at the previous level
	next       []uint64 // roots arriving at u over this level's edges
	front      []uint64 // nodes with cur != 0
	touched    []uint64 // nodes with next != 0
}

func newSweep(n int) *sweep {
	words := (n + 63) / 64
	return &sweep{
		seen: make([]uint64, n), cur: make([]uint64, n), next: make([]uint64, n),
		front: make([]uint64, words), touched: make([]uint64, words),
	}
}

// run searches from the w roots r0..r0+w-1 and returns the mask of all w
// and the last level that reached a node; s.seen holds who reached what.
// With dist set, the roots are the
// destinations of block r0/64 (the adjacency is the reverse digraph), the
// table's words end with that block, and every level is ORed into the
// block's planes, which grow by one, keeping the table's room in blocks,
// when a level first needs it.
func (s *sweep) run(r0, w int, dist *DistTable) (all uint64, depth int) {
	all = ^uint64(0) >> uint(64-w)
	clear(s.seen)
	for i := 0; i < w; i++ {
		s.seen[r0+i] = 1 << uint(i)
		s.cur[r0+i] = 1 << uint(i)
	}
	s.front[r0>>6] = all
	var base int // of the block's words for node 0
	if dist != nil {
		base = (r0 >> 6) * dist.n
	}
	for d := 1; ; d++ {
		for wi, fw := range s.front {
			s.front[wi] = 0
			for ; fw != 0; fw &= fw - 1 {
				u := wi<<6 | bits.TrailingZeros64(fw)
				c := s.cur[u]
				s.cur[u] = 0
				for _, v := range s.adj[s.start[u]:s.start[u+1]] {
					s.next[v] |= c
					s.touched[v>>6] |= 1 << uint(v&63)
				}
			}
		}
		grew := false
		for wi, tw := range s.touched {
			s.touched[wi] = 0
			nf := uint64(0)
			for ; tw != 0; tw &= tw - 1 {
				v := wi<<6 | bits.TrailingZeros64(tw)
				fresh := s.next[v] &^ s.seen[v]
				s.next[v] = 0
				if fresh == 0 {
					continue
				}
				s.seen[v] |= fresh
				s.cur[v] = fresh
				nf |= tw & -tw
				if dist == nil {
					continue
				}
				if d>>uint(dist.planes) != 0 {
					room := cap(dist.words) / (dist.n * dist.planes)
					dist.words = dist.replane(dist.planes+1, r0>>6+1, room)
					dist.planes++
				}
				row := dist.words[(base+v)*dist.planes:]
				for x := uint(d); x != 0; x &= x - 1 {
					row[bits.TrailingZeros(x)] |= fresh
				}
			}
			if nf != 0 {
				s.front[wi] = nf
				grew = true
			}
		}
		if !grew {
			return all, depth
		}
		depth = d
	}
}
