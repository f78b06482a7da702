package topology

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// adjTopology serves a decoded adjacency through the Topology interface, so
// BFSDistance can search it whether or not NewGraph accepted it.
type adjTopology struct {
	adj   [][]int32
	ports int
}

func (a adjTopology) Name() string { return "fuzz" }
func (a adjTopology) Nodes() int   { return len(a.adj) }
func (a adjTopology) Ports() int   { return a.ports }
func (a adjTopology) Neighbor(u, p int) int {
	if p < len(a.adj[u]) {
		return int(a.adj[u][p])
	}
	return None
}
func (a adjTopology) ReversePort(u, p int) int { return None }
func (a adjTopology) PortTo(u, v int) int      { return slices.Index(a.adj[u], int32(v)) }
func (a adjTopology) Distance(x, y int) int    { return BFSDistance(a, x, y) }

// decodeAdjacency reads a small directed adjacency from fuzz input: byte 0
// gives n = 2 + b%79 nodes, byte 1 gives 1 + b%4 ports, and then one byte
// per (node, port), node-major: b%(n+1) is the endpoint, n meaning a None
// pad. Missing bytes are pads. Unless bit 7 of byte 1 is set, self-loops
// and repeated endpoints are decoded as pads too, so most inputs are simple
// digraphs that reach the search rather than the validation.
func decodeAdjacency(data []byte) [][]int32 {
	if len(data) < 2 {
		return nil
	}
	n, ports, raw := 2+int(data[0])%79, 1+int(data[1])%4, data[1]&0x80 != 0
	data = data[2:]
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = make([]int32, ports)
		for p := range adj[u] {
			v := int32(None)
			if i := u*ports + p; i < len(data) {
				if w := int32(data[i]) % int32(n+1); w < int32(n) {
					v = w
				}
			}
			if !raw && (v == int32(u) || slices.Contains(adj[u][:p], v)) {
				v = None
			}
			adj[u][p] = v
		}
	}
	return adj
}

// FuzzNewGraph: NewGraph never panics on an arbitrary adjacency; a graph it
// builds reads back every distance the scalar BFS finds, with the largest as
// its diameter; and a graph it refuses as not strongly connected names the
// lowest (s, v) pair with no path. The seed corpus in
// testdata/fuzz/FuzzNewGraph holds a directed ring, two disjoint 2-cycles
// and undirected chains of diameter 15, 16 and 17, either side of the
// table's growth from four planes to five.
func FuzzNewGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		adj := decodeAdjacency(data)
		if adj == nil {
			return
		}
		ref := adjTopology{adj: adj, ports: len(adj[0])}
		g, err := NewGraph("fuzz", adj)
		if err != nil {
			_, pair, found := strings.Cut(err.Error(), "not strongly connected: no path ")
			if !found {
				return // refused by validation before the search
			}
			var s, v int
			if _, scanErr := fmt.Sscanf(pair, "%d -> %d", &s, &v); scanErr != nil {
				t.Fatalf("no (s, v) pair in %q", err)
			}
			if d := BFSDistance(ref, s, v); d != -1 {
				t.Fatalf("refused with no path %d -> %d, but the scalar BFS finds one of length %d", s, v, d)
			}
			for a := 0; a <= s; a++ {
				for b := range adj {
					if (a < s || b < v) && BFSDistance(ref, a, b) < 0 {
						t.Fatalf("refused naming %d -> %d, but %d -> %d is a lower pair with no path", s, v, a, b)
					}
				}
			}
			return
		}
		diam := 0
		for a := range adj {
			for b := range adj {
				want := BFSDistance(ref, a, b)
				if got := g.Distance(a, b); got != want {
					t.Fatalf("Distance(%d,%d) = %d, scalar BFS says %d", a, b, got, want)
				}
				diam = max(diam, want)
			}
		}
		if g.Diameter() != diam {
			t.Fatalf("Diameter() = %d, largest scalar distance is %d", g.Diameter(), diam)
		}
	})
}
