package topology

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// replane returns the table's words laid out on p >= Planes() planes.
func (d DistTable) replane(p int) []uint64 {
	rows := len(d.words) / d.planes
	w := make([]uint64, rows*p)
	for i := 0; i < rows; i++ {
		copy(w[i*p:], d.words[i*d.planes:(i+1)*d.planes])
	}
	return w
}

// AllPairsBFS computes the all-pairs hop-distance table of the digraph
// given by a flat node-major adjacency (nbr[u*ports+p] is the endpoint of
// port p of u, negative where unconnected). diam is the largest distance.
// It fails on the lowest (s, v) pair with no path s -> v, once a block of
// 64 destinations holding a stranded one is done — the first block for an
// undirected graph, so a caller that retries over candidate graphs pays
// little for a disconnected one.
//
// Each block is one multi-source search backwards from its 64 destinations
// (see sweep), and recording a level costs at most Planes() ORs of a node's
// newly reached destinations into its words of the block. Block 0 is
// searched first, alone, into a table of its own whose planes start at one
// and grow by re-layout when a level first reaches 2^Planes(). The full
// table is then allocated at that plane count, and the other blocks go to
// min(GOMAXPROCS, blocks-1) goroutines, the caller's among them, each
// taking the next block from a shared counter and writing only that
// block's words. A block that needs more planes grows a table of its own
// the same way; after the join the table is laid out on the most planes
// any block needed and those blocks are copied in. So the table is the
// same at any GOMAXPROCS.
func AllPairsBFS(nbr []int32, n, ports int) (dist DistTable, diam int, err error) {
	blocks := (n + 63) / 64
	in, out := compress(nbr, n, ports, true), compress(nbr, n, ports, false)
	s := newSweep(n, in, out)
	dist = DistTable{n: n, planes: 1, words: make([]uint64, n)}
	if diam = s.block(0, &dist); diam < 0 {
		return DistTable{}, 0, noPath(s)
	}
	if blocks == 1 {
		return dist, diam, nil
	}
	dist.words = append(make([]uint64, 0, blocks*n*dist.planes), dist.words...)[:blocks*n*dist.planes]
	depth := make([]int, blocks)
	grown := make([]DistTable, blocks)
	var next atomic.Int64
	var failed atomic.Bool
	search := func(s *sweep) {
		for b := int(next.Add(1)); b < blocks && !failed.Load(); b = int(next.Add(1)) {
			t := DistTable{n: n, planes: dist.planes, words: dist.Block(b * 64)}
			if depth[b] = s.block(b, &t); depth[b] < 0 {
				failed.Store(true)
			}
			if t.planes > dist.planes {
				grown[b] = t
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), blocks-1) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			search(newSweep(n, in, out))
		}()
	}
	search(s)
	wg.Wait()
	if failed.Load() {
		return DistTable{}, 0, noPath(s)
	}
	diam = max(diam, slices.Max(depth))
	if p := bits.Len(uint(diam)); p > dist.planes {
		dist.words, dist.planes = dist.replane(p), p
		for b, t := range grown {
			if t.words != nil {
				copy(dist.Block(b*64), t.replane(p))
			}
		}
	}
	return dist, diam, nil
}

// noPath names the lowest (s, v) pair of a digraph with no path s -> v: a
// forward search from 64 sources at a time, stopped at the first batch
// with a source that misses a node. It turns s's search around.
func noPath(s *sweep) error {
	s.push, s.pull = s.pull, s.push
	n := len(s.seen)
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

// csr is a digraph's adjacency as compressed rows: the nodes adjacent to u
// are adj[start[u]:start[u+1]].
type csr struct{ start, adj []int32 }

// compress returns the digraph's adjacency, or with transpose set that of
// its reverse, as compressed rows: the nodes one hop from u (or one hop
// into u), in port order (ascending u).
func compress(nbr []int32, n, ports int, transpose bool) csr {
	start := make([]int32, n+1)
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
	adj := make([]int32, start[n])
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
	return csr{start, adj}
}

// sweep advances up to 64 breadth-first searches at once (the multi-source
// BFS of Then et al., VLDB 2014): one uint64 per node holds the roots whose
// frontier is on it, and the roots newly reached at a node are those
// arriving there minus the ones it has seen. Each level goes one of two
// ways (the direction switch of Beamer, Asanovic and Patterson, SC 2012):
//   - push, while the frontier holds at most n/16 nodes: every frontier
//     node ORs its roots into the nodes push leads to from it, so the level
//     costs its frontier, not n (a 4096-node ring has 2048 levels of two
//     nodes each);
//   - pull, once the frontier is denser: every node not yet reached by all
//     roots ORs in the frontier roots of the nodes pull leads to from it.
//
// Both find the same roots at the same level, so the choice changes no
// output. push is the reverse digraph for a search from destinations and
// the forward one for a search from sources; pull is the other. A sweep
// belongs to one goroutine; its adjacencies are shared read-only.
type sweep struct {
	push, pull csr
	seen       []uint64 // roots that have reached u
	cur        []uint64 // roots that reached u at the previous level
	next       []uint64 // roots arriving at u over this level's edges
	front      []uint64 // nodes with cur != 0
	touched    []uint64 // nodes with next != 0
}

func newSweep(n int, push, pull csr) *sweep {
	words := (n + 63) / 64
	return &sweep{
		push: push, pull: pull,
		seen: make([]uint64, n), cur: make([]uint64, n), next: make([]uint64, n),
		front: make([]uint64, words), touched: make([]uint64, words),
	}
}

// block searches the destinations of block b into the one-block table t
// and returns the search's depth, or -1 when a node misses one of them.
func (s *sweep) block(b int, t *DistTable) int {
	all, depth := s.run(b*64, min(64, len(s.seen)-b*64), t)
	for _, sv := range s.seen {
		if sv != all {
			return -1
		}
	}
	return depth
}

// run searches from the w roots r0..r0+w-1 (r0 a multiple of 64) and
// returns the mask of all w and the last level that reached a node; s.seen
// holds who reached what. With dist set, dist is a one-block table of the
// roots and every level is ORed into its planes: a pushed level as it
// walks its new frontier, a pulled one, or one that needs a plane the
// table lacks, by a pass over the frontier after it.
func (s *sweep) run(r0, w int, dist *DistTable) (all uint64, depth int) {
	n := len(s.seen)
	all = ^uint64(0) >> uint(64-w)
	clear(s.seen)
	for i := 0; i < w; i++ {
		s.seen[r0+i] = 1 << uint(i)
		s.cur[r0+i] = 1 << uint(i)
	}
	s.front[r0>>6] = all
	for d, frontier := 1, w; ; d++ {
		push := frontier*16 <= n
		walk := dist
		if !push || dist == nil || d>>uint(dist.planes) != 0 {
			walk = nil
		}
		if push {
			frontier = s.pushLevel(d, walk)
		} else {
			frontier = s.pullLevel(all)
		}
		if frontier == 0 {
			return all, depth
		}
		depth = d
		if dist != nil && walk == nil {
			dist.level(d, s.front, s.cur)
		}
	}
}

// pushLevel advances the search by level d from the frontier's side,
// recording it in dist if set, and returns the new frontier's size.
func (s *sweep) pushLevel(d int, dist *DistTable) (frontier int) {
	for wi, fw := range s.front {
		s.front[wi] = 0
		for ; fw != 0; fw &= fw - 1 {
			u := wi<<6 | bits.TrailingZeros64(fw)
			c := s.cur[u]
			s.cur[u] = 0
			for _, v := range s.push.adj[s.push.start[u]:s.push.start[u+1]] {
				s.next[v] |= c
				s.touched[v>>6] |= 1 << uint(v&63)
			}
		}
	}
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
			if dist != nil {
				dist.or(v, d, fresh)
			}
		}
		s.front[wi] = nf
		frontier += bits.OnesCount64(nf)
	}
	return frontier
}

// pullLevel advances the search by a level from the side of the nodes that
// all roots have not reached yet, and returns the new frontier's size. The
// pass has no branch on what a node finds: a node that finds nothing new
// stores zeros.
func (s *sweep) pullLevel(all uint64) (frontier int) {
	for v, sv := range s.seen {
		if sv == all {
			continue
		}
		c := uint64(0)
		for _, u := range s.pull.adj[s.pull.start[v]:s.pull.start[v+1]] {
			c |= s.cur[u]
		}
		fresh := c &^ sv
		s.seen[v] = sv | fresh
		s.next[v] = fresh
		s.touched[v>>6] |= (fresh | -fresh) >> 63 << uint(v&63)
	}
	clear(s.cur)
	clear(s.front)
	s.cur, s.next = s.next, s.cur
	s.front, s.touched = s.touched, s.front
	for _, fw := range s.front {
		frontier += bits.OnesCount64(fw)
	}
	return frontier
}

// level records that the roots in reached[v] are d hops from each node v
// of front, first growing a plane if d needs one.
func (t *DistTable) level(d int, front, reached []uint64) {
	if d>>uint(t.planes) != 0 {
		t.words = t.replane(t.planes + 1)
		t.planes++
	}
	for wi, fw := range front {
		for ; fw != 0; fw &= fw - 1 {
			v := wi<<6 | bits.TrailingZeros64(fw)
			t.or(v, d, reached[v])
		}
	}
}

// or records that the roots in fresh are d hops from node v.
func (t *DistTable) or(v, d int, fresh uint64) {
	row := t.words[v*t.planes:][:t.planes]
	for x := uint(d); x != 0; x &= x - 1 {
		row[bits.TrailingZeros(x)] |= fresh
	}
}
