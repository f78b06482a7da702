package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/qdg"
	"repro/internal/topology"
	"repro/internal/xrand"
)

func graphAlgo(t *testing.T, g *topology.Graph, err error) *core.GraphAdaptive {
	t.Helper()
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	a, err := core.NewGraphAdaptive(g)
	if err != nil {
		t.Fatalf("core.NewGraphAdaptive: %v", err)
	}
	return a
}

// TestGraphAdaptiveVerified: the automatically derived hop-layer order
// passes the full mechanical deadlock-freedom certification on every
// generator family.
func TestGraphAdaptiveVerified(t *testing.T) {
	gens := []struct {
		name string
		g    *topology.Graph
		err  error
	}{
		{"random-regular", nil, nil},
		{"dragonfly", nil, nil},
		{"hyperx", nil, nil},
		{"fat-tree", nil, nil},
	}
	gens[0].g, gens[0].err = topology.NewRandomRegular(32, 3, 1)
	gens[1].g, gens[1].err = topology.NewDragonfly(3, 4)
	gens[2].g, gens[2].err = topology.NewHyperX(3, 3)
	gens[3].g, gens[3].err = topology.NewFatTree(6, 3)
	for _, c := range gens {
		a := graphAlgo(t, c.g, c.err)
		qg, err := qdg.Build(a)
		if err != nil {
			t.Fatalf("%s: qdg.Build: %v", c.name, err)
		}
		if err := qg.Verify(); err != nil {
			t.Errorf("%s: qdg.Verify: %v", c.name, err)
		}
	}
}

// TestGraphAdaptiveMinimalAndFullyAdaptive: from every reachable state the
// candidate set is exactly the full minimal next-hop set, one class up.
func TestGraphAdaptiveMinimalAndFullyAdaptive(t *testing.T) {
	rr, rrerr := topology.NewRandomRegular(24, 3, 5)
	a := graphAlgo(t, rr, rrerr)
	top := a.Topology()
	n := top.Nodes()
	var buf []core.Move
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			class, work := a.Inject(int32(src), int32(dst))
			if class != 0 || work != 0 {
				t.Fatalf("Inject(%d,%d) = (%d,%d), want (0,0)", src, dst, class, work)
			}
			// Walk one minimal path, checking the offered set at each hop.
			node := src
			for node != dst {
				d := top.Distance(node, dst)
				buf = a.Candidates(int32(node), class, work, int32(dst), buf[:0])
				want := 0
				for p := 0; p < top.Ports(); p++ {
					if v := top.Neighbor(node, p); v != topology.None && top.Distance(v, dst) == d-1 {
						want++
					}
				}
				if len(buf) != want {
					t.Fatalf("state (%d,c%d)->%d: %d candidates, want all %d minimal hops", node, class, dst, len(buf), want)
				}
				for _, m := range buf {
					if m.Kind != core.Static || m.Deliver || m.Class != class+1 {
						t.Fatalf("state (%d,c%d)->%d: non-hop-layer move %+v", node, class, dst, m)
					}
					if top.Distance(int(m.Node), dst) != d-1 {
						t.Fatalf("state (%d,c%d)->%d: non-minimal move to %d", node, class, dst, m.Node)
					}
				}
				node, class = int(buf[0].Node), buf[0].Class
			}
			buf = a.Candidates(int32(node), class, work, int32(dst), buf[:0])
			if len(buf) != 1 || !buf[0].Deliver {
				t.Fatalf("at destination %d: candidates %+v, want single Deliver", dst, buf)
			}
			if int(class) != top.Distance(src, dst) {
				t.Fatalf("delivered %d->%d in class %d, want distance %d", src, dst, class, top.Distance(src, dst))
			}
		}
	}
}

// TestGraphAdaptivePortMaskConsistency: PortMask must describe exactly the
// Candidates set for every routable state, and report delivery states as
// not plain.
func TestGraphAdaptivePortMaskConsistency(t *testing.T) {
	df, dferr := topology.NewDragonfly(4, 9)
	a := graphAlgo(t, df, dferr)
	top := a.Topology()
	n := top.Nodes()
	var pm core.PortMasks
	var buf []core.Move
	for node := 0; node < n; node++ {
		for dst := 0; dst < n; dst++ {
			for class := core.QueueClass(0); int(class) < a.NumClasses()-1; class++ {
				ok := a.PortMask(int32(node), class, 0, int32(dst), &pm)
				if node == dst {
					if ok || !pm.Deliver {
						t.Fatalf("PortMask does not deliver at node %d: plain=%v %+v", node, ok, pm)
					}
					continue
				}
				if !ok {
					t.Fatalf("PortMask reports routable state (%d,c%d)->%d as not plain", node, class, dst)
				}
				buf = a.Candidates(int32(node), class, 0, int32(dst), buf[:0])
				var want uint64
				for _, m := range buf {
					want |= 1 << uint(m.Port)
				}
				if pm.StaticMask != want || pm.Dyn != 0 || !pm.PerPort {
					t.Fatalf("state (%d,c%d)->%d: mask %064b, want %064b dyn=0 perport", node, class, dst, pm.StaticMask, want)
				}
				for _, m := range buf {
					if pm.PortClass[m.Port] != m.Class {
						t.Fatalf("state (%d,c%d)->%d port %d: class %d, want %d", node, class, dst, m.Port, pm.PortClass[m.Port], m.Class)
					}
				}
			}
		}
	}
}

func TestGraphAdaptiveOnClosedFormTopology(t *testing.T) {
	// The algorithm is generic: handed a closed-form topology (no cached
	// distance table) it must still derive the right diameter.
	a, err := core.NewGraphAdaptive(topology.NewHypercube(4))
	if err != nil {
		t.Fatalf("core.NewGraphAdaptive(hypercube): %v", err)
	}
	if a.NumClasses() != 5 {
		t.Errorf("NumClasses = %d, want 5 (diameter 4 + 1)", a.NumClasses())
	}
	if err := qdgVerify(a); err != nil {
		t.Errorf("verify on hypercube: %v", err)
	}
}

func qdgVerify(a core.Algorithm) error {
	g, err := qdg.Build(a)
	if err != nil {
		return err
	}
	return g.Verify()
}

// seedGrid is the generated-topology seed grid graph_e2e_test.go sweeps end
// to end (one constructor per generator family per cell), plus two
// random-regular sizes off the 32- and 64-node marks.
func seedGrid(t *testing.T) map[string]topology.Topology {
	t.Helper()
	grid := map[string]topology.Topology{}
	add := func(name string, g *topology.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grid[name] = g
	}
	for seed := int64(1); seed <= 4; seed++ {
		g, err := topology.NewRandomRegular(24, 3, seed)
		add(fmt.Sprintf("random-regular:n=24,k=3,seed=%d", seed), g, err)
		g, err = topology.NewRandomRegular(32, 4, seed)
		add(fmt.Sprintf("random-regular:n=32,k=4,seed=%d", seed), g, err)
	}
	g, err := topology.NewRandomRegular(33, 4, 1)
	add("random-regular:n=33,k=4,seed=1", g, err)
	g, err = topology.NewRandomRegular(100, 3, 1)
	add("random-regular:n=100,k=3,seed=1", g, err)
	df, err := topology.NewDragonfly(4, 9)
	add("dragonfly:a=4,g=9", df, err)
	hx, err := topology.NewHyperX(3, 3)
	add("hyperx:3x3", hx, err)
	ft, err := topology.NewFatTree(6, 3)
	add("fat-tree:leaves=6,spines=3", ft, err)
	return grid
}

// randomDigraph is the construction of topology's
// TestAllPairsBFSMatchesScalar: a directed Hamiltonian cycle through a
// random node order keeps the digraph strongly connected, and up to three
// random extra out-links per node (duplicates and self-loops left as None
// pads) shorten some paths. Distances are asymmetric, which every graph of
// seedGrid lacks: on an undirected graph a routing function that swapped
// source and destination would still be right.
func randomDigraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	rng := xrand.New(int64(n), 0)
	order := make([]int32, n)
	rng.Perm(order)
	adj := make([][]int32, n)
	for i, u := range order {
		row := []int32{order[(i+1)%n], topology.None, topology.None, topology.None}
		for p := 1; p < len(row); p++ {
			v := int32(rng.Intn(n))
			if v != u && rng.Coin(0.6) && !slices.Contains(row, v) {
				row[p] = v
			}
		}
		adj[u] = row
	}
	g, err := topology.NewGraph(fmt.Sprintf("random-digraph-%d", n), adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// complete is the complete graph on n nodes as a closed-form Topology:
// n-1 ports, port p of u leading to the p-th node other than u. At n = 40
// it is wider than the 32-bit port masks.
type complete int

func (c complete) Name() string { return fmt.Sprintf("complete(%d)", int(c)) }
func (c complete) Nodes() int   { return int(c) }
func (c complete) Ports() int   { return int(c) - 1 }
func (c complete) Neighbor(u, p int) int {
	if p >= u {
		return p + 1
	}
	return p
}
func (c complete) PortTo(u, v int) int {
	switch {
	case v == u:
		return topology.None
	case v > u:
		return v - 1
	}
	return v
}
func (c complete) ReversePort(u, p int) int { return c.PortTo(c.Neighbor(u, p), u) }
func (c complete) Distance(a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

// TestGraphAdaptiveMatchesBruteForce checks every decision graph-adaptive
// reads off the distance table against a reference that shares nothing with
// it: per-pair scalar BFS through the Topology interface, and a port scan
// over Neighbor. For every (node, class, dst), PortMask, Candidates and
// MaxHops must equal the reference exactly — on the undirected seed grid,
// on directed graphs with asymmetric distances and None-padded ports (a
// transposed table index passes the former and fails the latter), and on
// topologies wider than 32 ports, whose masks need the upper half of the
// word, up to all 64 bits.
func TestGraphAdaptiveMatchesBruteForce(t *testing.T) {
	grid := seedGrid(t)
	directed := map[string]bool{}
	for _, n := range []int{63, 65, 130} {
		g := randomDigraph(t, n)
		grid[g.Spec()] = g
		directed[g.Spec()] = true
	}
	grid["complete(40)"] = complete(40)
	grid["complete(65)"] = complete(65) // 64 ports: the whole mask word
	for name, top := range grid {
		t.Run(name, func(t *testing.T) {
			a, err := core.NewGraphAdaptive(top)
			if err != nil {
				t.Fatal(err)
			}
			n, ports := top.Nodes(), top.Ports()
			dist := make([][]int, n) // dist[u][v]: scalar BFS u -> v
			diam := 0
			for u := range dist {
				dist[u] = make([]int, n)
				for v := range dist[u] {
					dist[u][v] = topology.BFSDistance(top, u, v)
					diam = max(diam, dist[u][v])
				}
			}
			asymmetric := false
			for u := 0; u < n; u++ {
				for v := 0; v < u; v++ {
					asymmetric = asymmetric || dist[u][v] != dist[v][u]
				}
			}
			if asymmetric != directed[name] {
				t.Fatalf("asymmetric distances: %v, want %v (the digraphs are what catches a transposed index)", asymmetric, directed[name])
			}
			if a.NumClasses() != diam+1 {
				t.Fatalf("NumClasses = %d, want diameter %d + 1", a.NumClasses(), diam)
			}
			var pm core.PortMasks
			var got, want []core.Move
			for node := 0; node < n; node++ {
				for dst := 0; dst < n; dst++ {
					if h := a.MaxHops(int32(node), int32(dst)); h != dist[node][dst] {
						t.Fatalf("MaxHops(%d,%d) = %d, scalar BFS says %d", node, dst, h, dist[node][dst])
					}
					for class := core.QueueClass(0); int(class) < a.NumClasses()-1; class++ {
						want = want[:0]
						wantMask := uint64(0)
						if node == dst {
							want = append(want, core.Move{Node: int32(node), Port: core.PortInternal, Kind: core.Static, Deliver: true})
						} else {
							for p := 0; p < ports; p++ {
								v := top.Neighbor(node, p)
								if v == topology.None || dist[v][dst] != dist[node][dst]-1 {
									continue
								}
								want = append(want, core.Move{Node: int32(v), Port: int16(p), Class: class + 1, Kind: core.Static})
								wantMask |= 1 << uint(p)
							}
							if len(want) == 0 {
								t.Fatalf("reference has no minimal hop at (%d)->%d", node, dst)
							}
						}
						got = a.Candidates(int32(node), class, 0, int32(dst), got[:0])
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("state (%d,c%d)->%d: Candidates %+v, reference %+v", node, class, dst, got, want)
						}
						ok := a.PortMask(int32(node), class, 0, int32(dst), &pm)
						if wantOK := node != dst; ok != wantOK {
							t.Fatalf("state (%d,c%d)->%d: PortMask returned %v, want %v", node, class, dst, ok, wantOK)
						}
						if !ok {
							continue
						}
						if !pm.PerPort || pm.StaticMask != wantMask || pm.Dyn != 0 || pm.Work != 0 {
							t.Fatalf("state (%d,c%d)->%d: mask %+v, reference static mask %064b", node, class, dst, pm, wantMask)
						}
						for _, m := range want {
							if pm.PortClass[m.Port] != m.Class {
								t.Fatalf("state (%d,c%d)->%d port %d: class %d, want %d", node, class, dst, m.Port, pm.PortClass[m.Port], m.Class)
							}
						}
					}
				}
			}
		})
	}
}

// TestGraphAdaptiveBorrowsTables: over a *topology.Graph the algorithm is
// its own struct and nothing else — adjacency and distances are the
// graph's, and there is no derived table to build.
func TestGraphAdaptiveBorrowsTables(t *testing.T) {
	g, err := topology.NewRandomRegular(512, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := core.NewGraphAdaptive(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("NewGraphAdaptive over a *topology.Graph allocates %.0f times, want at most 1", allocs)
	}
}

// ring is the bidirectional ring on n nodes, port 0 leading to u-1 and port
// 1 to u+1; its diameter is n/2.
func ring(t *testing.T, n int) *topology.Graph {
	t.Helper()
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = []int32{int32((u + n - 1) % n), int32((u + 1) % n)}
	}
	g, err := topology.NewGraph(fmt.Sprintf("ring-%d", n), adj)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGraphAdaptiveManyPlanes: the decision read has a loop of its own for
// each plane count up to four and a general one above, which no generated
// family of TestGraphAdaptiveMatchesBruteForce reaches. Rings of diameter
// 17, 65 and 254 (five, seven and eight planes) check PortMask, Candidates
// and MaxHops against the ring's closed-form distance for every (node, dst);
// the even ring offers both ports at its antipode.
func TestGraphAdaptiveManyPlanes(t *testing.T) {
	for _, n := range []int{34, 130, 509} {
		a, err := core.NewGraphAdaptive(ring(t, n))
		if err != nil {
			t.Fatal(err)
		}
		dist := func(u, v int) int { return min((u-v+n)%n, (v-u+n)%n) }
		var pm core.PortMasks
		var got []core.Move
		for node := 0; node < n; node++ {
			for dst := 0; dst < n; dst++ {
				d := dist(node, dst)
				if h := a.MaxHops(int32(node), int32(dst)); h != d {
					t.Fatalf("ring-%d: MaxHops(%d,%d) = %d, want %d", n, node, dst, h, d)
				}
				if node == dst {
					continue
				}
				var want []core.Move
				wantMask := uint64(0)
				for p, v := range []int{(node + n - 1) % n, (node + 1) % n} {
					if dist(v, dst) == d-1 {
						want = append(want, core.Move{Node: int32(v), Port: int16(p), Class: 1, Kind: core.Static})
						wantMask |= 1 << p
					}
				}
				got = a.Candidates(int32(node), 0, 0, int32(dst), got[:0])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ring-%d (%d)->%d: Candidates %+v, want %+v", n, node, dst, got, want)
				}
				if !a.PortMask(int32(node), 0, 0, int32(dst), &pm) || pm.StaticMask != wantMask {
					t.Fatalf("ring-%d (%d)->%d: mask %064b, want %064b", n, node, dst, pm.StaticMask, wantMask)
				}
			}
		}
	}
}

// TestGraphAdaptiveRefusesWideNodes: a node of 65 ports does not fit a
// port mask.
func TestGraphAdaptiveRefusesWideNodes(t *testing.T) {
	if _, err := core.NewGraphAdaptive(complete(66)); err == nil || !strings.Contains(err.Error(), "has 65 ports, above the 64 a port mask holds") {
		t.Errorf("complete(66): got error %v, want the port-mask refusal", err)
	}
}

// TestGraphAdaptiveRefusesLongDiameter: a network of diameter 255 needs a
// hop class the 8-bit queue classes do not have.
func TestGraphAdaptiveRefusesLongDiameter(t *testing.T) {
	if _, err := core.NewGraphAdaptive(ring(t, 510)); err == nil || !strings.Contains(err.Error(), "has diameter 255, above the 254 hop-class limit") {
		t.Errorf("ring of diameter 255: got error %v, want the hop-class refusal", err)
	}
}
