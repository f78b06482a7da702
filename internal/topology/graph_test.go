package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/xrand"
)

// mustGraph returns a helper that unwraps a generator result and runs the
// package-wide structural Validate checks, so tests can write
// mustGraph(t)(NewDragonfly(4, 9)).
func mustGraph(t *testing.T) func(*Graph, error) *Graph {
	return func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatalf("generator failed: %v", err)
		}
		if err := Validate(g); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		return g
	}
}

func TestNewGraphValidation(t *testing.T) {
	cases := []struct {
		name string
		adj  [][]int32
		want string
	}{
		{"too small", [][]int32{{0}}, "at least 2 nodes"},
		{"self-loop", [][]int32{{0, 1}, {0}}, "self-loop"},
		{"duplicate", [][]int32{{1, 1}, {0}}, "duplicate"},
		{"out of range", [][]int32{{5}, {0}}, "out-of-range"},
		{"no out-links", [][]int32{{}, {}}, "no out-links"},
		{"disconnected", [][]int32{{1}, {0}, {3}, {2}}, "not strongly connected: no path 0 -> 2"},
		{"one-way sink", [][]int32{{1}, {2}, {None, None}}, "not strongly connected: no path 1 -> 0"},
	}
	for _, c := range cases {
		if _, err := NewGraph("test", c.adj); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestGraphDirectedCycle(t *testing.T) {
	// Directed 4-ring: strongly connected but asymmetric; ReversePort must
	// report None everywhere and distances must follow link direction.
	g := mustGraph(t)(NewGraph("ring4", [][]int32{{1}, {2}, {3}, {0}}))
	if g.Diameter() != 3 {
		t.Errorf("diameter = %d, want 3", g.Diameter())
	}
	if d := g.Distance(1, 0); d != 3 {
		t.Errorf("Distance(1,0) = %d, want 3 (directed)", d)
	}
	if rp := g.ReversePort(0, 0); rp != None {
		t.Errorf("ReversePort on one-way link = %d, want None", rp)
	}
}

func TestRandomRegularProperties(t *testing.T) {
	g := mustGraph(t)(NewRandomRegular(64, 4, 7))
	if g.Nodes() != 64 || g.Ports() != 4 {
		t.Fatalf("got %d nodes %d ports, want 64/4", g.Nodes(), g.Ports())
	}
	for u := 0; u < g.Nodes(); u++ {
		if d := Degree(g, u); d != 4 {
			t.Errorf("node %d degree %d, want 4", u, d)
		}
		for p := 0; p < g.Ports(); p++ {
			v := g.Neighbor(u, p)
			if g.ReversePort(u, p) == None {
				t.Errorf("link %d->%d has no reverse: graph must be undirected", u, v)
			}
			if p > 0 && v <= g.Neighbor(u, p-1) {
				t.Errorf("node %d ports not in ascending neighbor order", u)
			}
		}
	}
	if g.Spec() != "random-regular:n=64,k=4,seed=7" {
		t.Errorf("spec = %q", g.Spec())
	}
}

func TestRandomRegularDeterminism(t *testing.T) {
	a := mustGraph(t)(NewRandomRegular(128, 3, 42))
	b := mustGraph(t)(NewRandomRegular(128, 3, 42))
	for u := 0; u < a.Nodes(); u++ {
		for p := 0; p < a.Ports(); p++ {
			if a.Neighbor(u, p) != b.Neighbor(u, p) {
				t.Fatalf("same parameters produced different graphs at node %d port %d", u, p)
			}
		}
	}
	c := mustGraph(t)(NewRandomRegular(128, 3, 43))
	same := true
	for u := 0; u < a.Nodes() && same; u++ {
		for p := 0; p < a.Ports(); p++ {
			if a.Neighbor(u, p) != c.Neighbor(u, p) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRandomRegularErrors(t *testing.T) {
	for _, c := range []struct{ n, k int }{{3, 2}, {8, 1}, {8, 9}, {5, 3}, {MaxGraphNodes + 2, 2}} {
		if _, err := NewRandomRegular(c.n, c.k, 1); err == nil {
			t.Errorf("NewRandomRegular(%d,%d) accepted invalid parameters", c.n, c.k)
		}
	}
}

func TestDragonflyStructure(t *testing.T) {
	g := mustGraph(t)(NewDragonfly(4, 9)) // h=2: 36 routers, 3 local + 2 global ports
	if g.Nodes() != 36 || g.Ports() != 5 {
		t.Fatalf("got %d nodes %d ports, want 36/5", g.Nodes(), g.Ports())
	}
	// Exactly one global link between every pair of groups.
	pairs := make(map[[2]int]int)
	for u := 0; u < g.Nodes(); u++ {
		gu := u / 4
		for p := 0; p < g.Ports(); p++ {
			v := g.Neighbor(u, p)
			gv := v / 4
			if gu == gv {
				if p >= 3 {
					t.Errorf("global port %d of node %d stays inside group %d", p, u, gu)
				}
				continue
			}
			if p < 3 {
				t.Errorf("local port %d of node %d leaves group %d", p, u, gu)
			}
			pairs[[2]int{gu, gv}]++
		}
	}
	for gi := 0; gi < 9; gi++ {
		for gj := 0; gj < 9; gj++ {
			if gi == gj {
				continue
			}
			if pairs[[2]int{gi, gj}] != 1 {
				t.Errorf("groups %d->%d have %d global links, want 1", gi, gj, pairs[[2]int{gi, gj}])
			}
		}
	}
	// Diameter 3: local, global, local.
	if g.Diameter() != 3 {
		t.Errorf("diameter = %d, want 3", g.Diameter())
	}
	if _, err := NewDragonfly(4, 10); err == nil {
		t.Error("NewDragonfly(4,10) accepted a!=divisor of g-1")
	}
}

func TestHyperXStructure(t *testing.T) {
	g := mustGraph(t)(NewHyperX(4, 4))
	if g.Nodes() != 16 || g.Ports() != 6 {
		t.Fatalf("got %d nodes %d ports, want 16/6", g.Nodes(), g.Ports())
	}
	if g.Diameter() != 2 {
		t.Errorf("diameter = %d, want 2 (one hop per dimension)", g.Diameter())
	}
	// 1-D HyperX is a complete graph.
	k := mustGraph(t)(NewHyperX(8))
	if k.Diameter() != 1 {
		t.Errorf("K8 diameter = %d, want 1", k.Diameter())
	}
	if _, err := NewHyperX(1, 4); err == nil {
		t.Error("NewHyperX accepted side 1")
	}
}

func TestFatTreeStructure(t *testing.T) {
	g := mustGraph(t)(NewFatTree(8, 4))
	if g.Nodes() != 12 || g.Ports() != 8 {
		t.Fatalf("got %d nodes %d ports, want 12/8", g.Nodes(), g.Ports())
	}
	if g.Diameter() != 2 {
		t.Errorf("diameter = %d, want 2 (leaf-spine-leaf)", g.Diameter())
	}
	// Every leaf reaches every spine directly; leaves never link to leaves.
	for l := 0; l < 8; l++ {
		for l2 := 0; l2 < 8; l2++ {
			if l != l2 && g.PortTo(l, l2) != None {
				t.Errorf("leaf %d directly linked to leaf %d", l, l2)
			}
		}
		for s := 0; s < 4; s++ {
			if g.PortTo(l, 8+s) == None {
				t.Errorf("leaf %d not linked to spine %d", l, s)
			}
		}
	}
}

func TestGraphDistanceMatchesBFS(t *testing.T) {
	g := mustGraph(t)(NewDragonfly(2, 5))
	for a := 0; a < g.Nodes(); a++ {
		for b := 0; b < g.Nodes(); b++ {
			if got, want := g.Distance(a, b), BFSDistance(g, a, b); got != want {
				t.Fatalf("Distance(%d,%d) = %d, BFS says %d", a, b, got, want)
			}
		}
	}
}

// randomDigraph is a seeded random digraph with None-padded ports: a
// directed Hamiltonian cycle through a random node order keeps it strongly
// connected, and up to three random extra out-links per node (duplicates
// and self-loops left as None) shorten some paths.
func randomDigraph(t *testing.T, n int) *Graph {
	t.Helper()
	rng := xrand.New(int64(n), 0)
	order := make([]int32, n)
	rng.Perm(order)
	adj := make([][]int32, n)
	for i, u := range order {
		row := []int32{order[(i+1)%n], None, None, None}
		for p := 1; p < len(row); p++ {
			v := int32(rng.Intn(n))
			if v != u && rng.Coin(0.6) && !slices.Contains(row, v) {
				row[p] = v
			}
		}
		adj[u] = row
	}
	return mustGraph(t)(NewGraph(fmt.Sprintf("random-digraph-%d", n), adj))
}

// allPairsDigraphSizes put the last batch of 64 sources at 2, 63, 64, 1 and
// 2 wide.
var allPairsDigraphSizes = []int{2, 63, 64, 65, 130}

// checkScalar compares every distance and the diameter against the scalar
// per-pair BFS.
func checkScalar(t *testing.T, g *Graph) {
	t.Helper()
	diam := 0
	for a := 0; a < g.Nodes(); a++ {
		for b := 0; b < g.Nodes(); b++ {
			want := BFSDistance(g, a, b)
			if got := g.Distance(a, b); got != want {
				t.Fatalf("%s: Distance(%d,%d) = %d, scalar BFS says %d", g.Name(), a, b, got, want)
			}
			diam = max(diam, want)
		}
	}
	if g.Diameter() != diam {
		t.Errorf("%s: Diameter() = %d, largest scalar distance is %d", g.Name(), g.Diameter(), diam)
	}
}

// TestAllPairsBFSMatchesScalar checks the bit-parallel kernel against the
// scalar per-pair BFS on seeded random directed graphs: distances are
// asymmetric.
func TestAllPairsBFSMatchesScalar(t *testing.T) {
	for _, n := range allPairsDigraphSizes {
		checkScalar(t, randomDigraph(t, n))
	}
}

// distDigest is a digest of a graph's distance table: its words, plane
// count and diameter.
func distDigest(g *Graph) string {
	h := sha256.New()
	d := g.Distances()
	binary.Write(h, binary.LittleEndian, []int64{int64(d.Planes()), int64(g.Diameter())})
	binary.Write(h, binary.LittleEndian, d.words)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestAllPairsBFSAnyProcs: the blocks after the first are searched on
// min(GOMAXPROCS, blocks-1) goroutines, so the table must be the same word
// for word at one, two and three. The digests were recorded with the
// serial, push-only search the parallel one replaced. The random digraphs
// are the scalar-checked ones above; the directed ring of 1100 nodes keeps
// a frontier of at most 64 < 1100/16 nodes, so every level pushes, while
// the random-regular graphs pull their middle levels.
func TestAllPairsBFSAnyProcs(t *testing.T) {
	type spec struct {
		name  string
		build func() *Graph
		pin   string
	}
	specs := []spec{
		{"random-regular-512", func() *Graph { return mustGraph(t)(NewRandomRegular(512, 3, 1)) }, "db3a8011460d7feb"},
		{"random-regular-1024", func() *Graph { return mustGraph(t)(NewRandomRegular(1024, 3, 1)) }, "12b4b1fa94050c29"},
		{"random-regular-4096", func() *Graph { return mustGraph(t)(NewRandomRegular(MaxGraphNodes, 3, 1)) }, "273f83f0fe7fd87d"},
		{"ring-1100", func() *Graph { return directedCycle(t, 1100) }, "37974201f40b69a1"},
	}
	for i, n := range allPairsDigraphSizes {
		specs = append(specs, spec{fmt.Sprintf("random-digraph-%d", n), func() *Graph { return randomDigraph(t, n) },
			[]string{"8f143a07e2aa249c", "886378f9c6516ce3", "076156f8ed4d31ad", "21c5d5527372bbbf", "db9c5c51fe7a1681"}[i]})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sp := range specs {
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			if got := distDigest(sp.build()); got != sp.pin {
				t.Errorf("%s at GOMAXPROCS=%d: table digest %s, pinned %s", sp.name, procs, got, sp.pin)
			}
		}
	}
}

// TestAllPairsBFSLaterBlockNeedsMorePlanes: the full table is allocated at
// the planes of block 0, so a later block that reaches 2^Planes() must
// still get every distance. Every node but 0 links to node 0, which links
// to nodes 1..31 and to the head of the chain 64 -> 65 -> ... -> 199; node
// i in 1..31 links on to 31+i, and node 1 also to 63. A node of block 0 is
// at most three hops from anywhere (two planes), while chain node 64+j is
// 2+j hops from node 1: blocks 1, 2 and 3 need seven, eight and eight
// planes.
func TestAllPairsBFSLaterBlockNeedsMorePlanes(t *testing.T) {
	const n = 200
	adj := make([][]int32, n)
	for v := int32(1); v < 32; v++ {
		adj[0] = append(adj[0], v)
	}
	adj[0] = append(adj[0], 64)
	for u := 1; u < n; u++ {
		adj[u] = []int32{0, None, None}
		switch {
		case u < 32:
			adj[u][1] = int32(31 + u)
		case u >= 64 && u < n-1:
			adj[u][1] = int32(u + 1)
		}
	}
	adj[1][2] = 63
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		g := mustGraph(t)(NewGraph(fmt.Sprintf("hub-chain@%d", procs), adj))
		if g.Diameter() != 137 || g.Distances().Planes() != 8 {
			t.Fatalf("GOMAXPROCS=%d: diameter %d on %d planes, want 137 on 8", procs, g.Diameter(), g.Distances().Planes())
		}
		checkScalar(t, g)
	}
}

// TestAllPairsBFSLateBatchFailure: when every source of the first two
// batches reaches every node, the third batch must still find the pair;
// and when every node reaches the first destination block but not a later
// one, the goroutines searching the later blocks must refuse the graph
// with the same pair at any GOMAXPROCS.
func TestAllPairsBFSLateBatchFailure(t *testing.T) {
	// Nodes 0..137 form a directed ring, node 0 also feeds the two-node
	// trap 138 <-> 139, so 138 is the lowest source with an unreachable
	// destination and 0 the lowest such destination.
	const ring = 138
	trap := make([][]int32, ring+2)
	for u := 0; u < ring; u++ {
		trap[u] = []int32{int32((u + 1) % ring), None}
	}
	trap[0][1] = ring
	trap[ring] = []int32{ring + 1}
	trap[ring+1] = []int32{ring}
	// Nodes 0..63 form a directed ring that nodes 64..199 all feed into
	// through node 0 but never hear from: block 0 is reached from
	// everywhere, and 0 -> 64 is the lowest pair with no path.
	feed := make([][]int32, 200)
	for u := range feed {
		feed[u] = []int32{0}
		if u < 64 {
			feed[u][0] = int32((u + 1) % 64)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			name string
			adj  [][]int32
			want string
		}{{"late-trap", trap, "no path 138 -> 0"}, {"feed", feed, "no path 0 -> 64"}} {
			if _, err := NewGraph(c.name, c.adj); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s at GOMAXPROCS=%d: got error %v, want substring %q", c.name, procs, err, c.want)
			}
		}
	}
}

// directedCycle is the directed ring 0 -> 1 -> ... -> n-1 -> 0, whose
// diameter is n-1.
func directedCycle(t *testing.T, n int) *Graph {
	t.Helper()
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = []int32{int32((u + 1) % n)}
	}
	return mustGraph(t)(NewGraph(fmt.Sprintf("ring%d", n), adj))
}

// TestDistTablePlaneBoundaries: the table starts on one plane and grows one
// at a time as the search's levels cross a power of two, so a diameter on
// either side of 2, 4, 8, 16, 32 and 256 must still read back every
// distance the scalar BFS finds, on exactly bits.Len(diameter) planes.
func TestDistTablePlaneBoundaries(t *testing.T) {
	for _, diam := range []int{1, 2, 3, 4, 7, 8, 14, 15, 16, 17, 30, 31, 32, 33, 254, 255, 256} {
		g := directedCycle(t, diam+1)
		if g.Diameter() != diam {
			t.Fatalf("ring of %d: Diameter() = %d, want %d", diam+1, g.Diameter(), diam)
		}
		if got, want := g.Distances().Planes(), bits.Len(uint(diam)); got != want {
			t.Errorf("diameter %d: %d planes, want %d", diam, got, want)
		}
		for a := 0; a < g.Nodes(); a++ {
			for b := 0; b < g.Nodes(); b++ {
				if got, want := g.Distance(a, b), BFSDistance(g, a, b); got != want {
					t.Fatalf("diameter %d: Distance(%d,%d) = %d, scalar BFS says %d", diam, a, b, got, want)
				}
			}
		}
	}
}

// TestDistTableSize pins the table's memory: n²·P/8 bytes with P the
// fewest planes that hold the diameter, so the largest random-regular spec
// (diameter 15, four planes) takes n²/2 bytes, and a table of a byte or an
// int16 per pair (n² or 2n²) fails.
func TestDistTableSize(t *testing.T) {
	g := mustGraph(t)(NewRandomRegular(MaxGraphNodes, 3, 1))
	n := g.Nodes()
	if got, limit := 8*cap(g.Distances().words), n*n/2; got > limit {
		t.Errorf("n=%d diameter %d: distance table holds %d bytes, want at most n²/2 = %d", n, g.Diameter(), got, limit)
	}
}

// adjHash is a digest of a graph's port-ordered adjacency.
func adjHash(g *Graph) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range g.FlatNeighbors() {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestRandomRegularPinnedGraphs: attempt i draws from xrand.New(seed, i),
// so every seed that produced a graph before the generator went map-free
// must still produce the same one. Hashes recorded at the commit before.
func TestRandomRegularPinnedGraphs(t *testing.T) {
	for _, c := range []struct {
		n, k int
		seed int64
		hash string
		diam int
	}{
		{64, 4, 7, "67960a90730d638c", 6},
		{128, 3, 42, "f10d2ff1c02d0236", 10},
		{1024, 3, 1, "4cd47592a66566cb", 13},
		{2048, 3, 5, "eb45ecb995f90878", 14},
	} {
		g := mustGraph(t)(NewRandomRegular(c.n, c.k, c.seed))
		if got := adjHash(g); got != c.hash || g.Diameter() != c.diam {
			t.Errorf("random-regular n=%d k=%d seed=%d: adjacency %s diameter %d, pinned %s diameter %d",
				c.n, c.k, c.seed, got, g.Diameter(), c.hash, c.diam)
		}
	}
}

// TestRandomRegularRetryBudget: degree 4 must not refuse ordinary seeds
// (200 attempts refused 4 of these 300), and degree 5 must mostly succeed
// (it refused 201 of 300).
func TestRandomRegularRetryBudget(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if _, err := NewRandomRegular(64, 4, seed); err != nil {
			t.Errorf("k=4: %v", err)
		}
	}
	fail5 := 0
	for seed := int64(1); seed <= 60; seed++ {
		if _, err := NewRandomRegular(64, 5, seed); err != nil {
			fail5++
		}
	}
	if fail5 > 15 { // expected 60/12 = 5
		t.Errorf("k=5: %d of 60 seeds refused, expected about 5", fail5)
	}
}

// TestRandomRegularHopelessSpecIsCheap: the daemon generates on client
// input, so a spec no seed can satisfy must be refused quickly — the
// attempts allocate nothing, and the error says why larger k fails. The
// refusal took 135 ms with 200 map-based attempts and is about as long
// with 1000 map-free ones; the ceiling is generous for slow CI hosts.
func TestRandomRegularHopelessSpecIsCheap(t *testing.T) {
	start := time.Now()
	_, err := NewRandomRegular(MaxGraphNodes, 8, 1)
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "e^-(k^2-1)/4") {
		t.Fatalf("got error %v, want a refusal that names the success probability", err)
	}
	if took > 3*time.Second {
		t.Errorf("refusing n=%d k=8 took %v, want well under 3s", MaxGraphNodes, took)
	}
}
