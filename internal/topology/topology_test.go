package topology

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestHypercubeBasics(t *testing.T) {
	h := NewHypercube(4)
	if h.Nodes() != 16 {
		t.Fatalf("Nodes() = %d, want 16", h.Nodes())
	}
	if h.Ports() != 4 {
		t.Fatalf("Ports() = %d, want 4", h.Ports())
	}
	if got := h.Neighbor(0b1010, 0); got != 0b1011 {
		t.Errorf("Neighbor(1010,0) = %04b, want 1011", got)
	}
	if got := h.Neighbor(0b1010, 3); got != 0b0010 {
		t.Errorf("Neighbor(1010,3) = %04b, want 0010", got)
	}
	if got := h.PortTo(0b1010, 0b1000); got != 1 {
		t.Errorf("PortTo(1010,1000) = %d, want 1", got)
	}
	if got := h.PortTo(0b1010, 0b0101); got != None {
		t.Errorf("PortTo(1010,0101) = %d, want None", got)
	}
	if got := h.Distance(0b1010, 0b0101); got != 4 {
		t.Errorf("Distance(1010,0101) = %d, want 4", got)
	}
	if got := h.Level(0b1011); got != 3 {
		t.Errorf("Level(1011) = %d, want 3", got)
	}
}

func TestHypercubeValidate(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		if err := Validate(NewHypercube(n)); err != nil {
			t.Errorf("hypercube(%d): %v", n, err)
		}
	}
}

func TestHypercubeDistanceMatchesBFS(t *testing.T) {
	h := NewHypercube(5)
	for a := 0; a < h.Nodes(); a += 3 {
		for b := 0; b < h.Nodes(); b += 5 {
			if got, want := h.Distance(a, b), BFSDistance(h, a, b); got != want {
				t.Fatalf("Distance(%d,%d) = %d, BFS = %d", a, b, got, want)
			}
		}
	}
}

func TestHypercubePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHypercube(0) did not panic")
		}
	}()
	NewHypercube(0)
}

func TestMeshBasics(t *testing.T) {
	m := NewMesh2D(4)
	if m.Nodes() != 16 || m.Ports() != 4 || m.Dims() != 2 {
		t.Fatalf("unexpected mesh shape: nodes=%d ports=%d dims=%d", m.Nodes(), m.Ports(), m.Dims())
	}
	u := m.NodeAt(2, 1)
	if m.Coord(u, 0) != 2 || m.Coord(u, 1) != 1 {
		t.Fatalf("coordinate round trip failed for %d", u)
	}
	if got := m.Neighbor(u, 0); got != m.NodeAt(3, 1) {
		t.Errorf("+x neighbor = %d, want %d", got, m.NodeAt(3, 1))
	}
	if got := m.Neighbor(u, 1); got != m.NodeAt(1, 1) {
		t.Errorf("-x neighbor = %d, want %d", got, m.NodeAt(1, 1))
	}
	if got := m.Neighbor(u, 2); got != m.NodeAt(2, 2) {
		t.Errorf("+y neighbor = %d, want %d", got, m.NodeAt(2, 2))
	}
	// Border: (3,*) has no +x neighbor, (0,*) no -x.
	if got := m.Neighbor(m.NodeAt(3, 2), 0); got != None {
		t.Errorf("border +x neighbor = %d, want None", got)
	}
	if got := m.Neighbor(m.NodeAt(0, 0), 1); got != None {
		t.Errorf("border -x neighbor = %d, want None", got)
	}
	if got := m.Distance(m.NodeAt(0, 3), m.NodeAt(2, 1)); got != 4 {
		t.Errorf("Distance = %d, want 4", got)
	}
	if got := m.Level(m.NodeAt(2, 3)); got != 5 {
		t.Errorf("Level = %d, want 5", got)
	}
}

func TestMeshKDimensional(t *testing.T) {
	m := NewMesh(3, 4, 2)
	if m.Nodes() != 24 || m.Ports() != 5 { // the side-2 dimension has one port
		t.Fatalf("nodes=%d ports=%d", m.Nodes(), m.Ports())
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < m.Nodes(); a++ {
		for b := 0; b < m.Nodes(); b += 7 {
			if got, want := m.Distance(a, b), BFSDistance(m, a, b); got != want {
				t.Fatalf("Distance(%d,%d) = %d, BFS = %d", a, b, got, want)
			}
		}
	}
}

// TestCoordTable holds the odometer-built coordinate tables to the
// mixed-radix divisions they replace, side-1 dimensions included, and checks
// that a binary mesh and a shape past maxCoordTable build none (and still
// answer Coord by dividing).
func TestCoordTable(t *testing.T) {
	div := func(u, stride, side int) int { return u / stride % side }
	check := func(name string, shape []int, nodes int, coord func(u, i int) int, tab []int32) {
		t.Helper()
		if tab == nil || len(tab) != nodes*len(shape) {
			t.Fatalf("%s: table of %d entries, want %d", name, len(tab), nodes*len(shape))
		}
		for u := 0; u < nodes; u++ {
			stride := 1
			for i, side := range shape {
				if got, want := coord(u, i), div(u, stride, side); got != want {
					t.Fatalf("%s: Coord(%d, %d) = %d, want %d", name, u, i, got, want)
				}
				stride *= side
			}
		}
	}
	for _, shape := range [][]int{{5}, {3, 4, 2}, {1, 3, 1, 4}, {2, 2, 3}, {7, 1}} {
		m := NewMesh(shape...)
		check(m.Name(), shape, m.Nodes(), m.Coord, m.coords)
	}
	for _, shape := range [][]int{{3}, {4, 3, 5}, {8, 8}} {
		to := NewTorus(shape...)
		check(to.Name(), shape, to.Nodes(), to.Coord, to.coords)
	}
	if m := NewHypercube(6); m.coords != nil {
		t.Errorf("%s built a coordinate table", m.Name())
	}
	big := NewMesh(maxCoordTable/2+1, 2)
	if big.coords != nil {
		t.Fatalf("%s: table of %d entries past the cap", big.Name(), len(big.coords))
	}
	if u := big.NodeAt(12345, 1); big.Coord(u, 0) != 12345 || big.Coord(u, 1) != 1 {
		t.Errorf("%s: Coord without a table = (%d, %d)", big.Name(), big.Coord(u, 0), big.Coord(u, 1))
	}
}

func TestMeshValidate(t *testing.T) {
	for _, m := range []*Mesh{NewMesh(1), NewMesh(5), NewMesh2D(2), NewMesh2D(5), NewMesh(2, 3, 4)} {
		if err := Validate(m); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestTorusBasics(t *testing.T) {
	to := NewTorus2D(4)
	if to.Nodes() != 16 || to.Ports() != 4 {
		t.Fatalf("nodes=%d ports=%d", to.Nodes(), to.Ports())
	}
	// Wraparound both ways.
	if got := to.Neighbor(to.NodeAt(3, 2), 0); got != to.NodeAt(0, 2) {
		t.Errorf("wrap +x = %d, want %d", got, to.NodeAt(0, 2))
	}
	if got := to.Neighbor(to.NodeAt(0, 1), 1); got != to.NodeAt(3, 1) {
		t.Errorf("wrap -x = %d, want %d", got, to.NodeAt(3, 1))
	}
	if got := to.Distance(to.NodeAt(0, 0), to.NodeAt(3, 3)); got != 2 {
		t.Errorf("Distance = %d, want 2 (wrap both dims)", got)
	}
	if got := to.Distance(to.NodeAt(0, 0), to.NodeAt(2, 2)); got != 4 {
		t.Errorf("Distance = %d, want 4", got)
	}
}

func TestTorusValidateAndDistance(t *testing.T) {
	for _, to := range []*Torus{NewTorus2D(3), NewTorus2D(5), NewTorus(3, 4), NewTorus(4, 3, 3)} {
		if err := Validate(to); err != nil {
			t.Fatalf("%s: %v", to.Name(), err)
		}
		for a := 0; a < to.Nodes(); a += 2 {
			for b := 0; b < to.Nodes(); b += 3 {
				if got, want := to.Distance(a, b), BFSDistance(to, a, b); got != want {
					t.Fatalf("%s: Distance(%d,%d) = %d, BFS = %d", to.Name(), a, b, got, want)
				}
			}
		}
	}
}

func TestTorusRejectsTinySides(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTorus(2,4) did not panic")
		}
	}()
	NewTorus(2, 4)
}

func TestShuffleExchangeBasics(t *testing.T) {
	s := NewShuffleExchange(3)
	if s.Nodes() != 8 || s.Ports() != 2 {
		t.Fatalf("nodes=%d ports=%d", s.Nodes(), s.Ports())
	}
	if got := s.RotLeft(0b110); got != 0b101 {
		t.Errorf("RotLeft(110) = %03b, want 101", got)
	}
	if got := s.RotRight(0b101); got != 0b110 {
		t.Errorf("RotRight(101) = %03b, want 110", got)
	}
	if got := s.Neighbor(0b110, ShufflePort); got != 0b101 {
		t.Errorf("shuffle neighbor = %03b", got)
	}
	if got := s.Neighbor(0b110, ExchangePort); got != 0b111 {
		t.Errorf("exchange neighbor = %03b", got)
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleRotationInverse(t *testing.T) {
	s := NewShuffleExchange(7)
	if err := quick.Check(func(u int) bool {
		u &= s.Nodes() - 1
		return s.RotRight(s.RotLeft(u)) == u && s.RotLeft(s.RotRight(u)) == u
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleCycles(t *testing.T) {
	s := NewShuffleExchange(4)
	// 0000 and 1111 are fixed points.
	if got := s.CycleLen(0b0000); got != 1 {
		t.Errorf("CycleLen(0000) = %d, want 1", got)
	}
	if got := s.CycleLen(0b1111); got != 1 {
		t.Errorf("CycleLen(1111) = %d, want 1", got)
	}
	// 0101/1010 form a degenerate length-2 cycle.
	if got := s.CycleLen(0b0101); got != 2 {
		t.Errorf("CycleLen(0101) = %d, want 2", got)
	}
	if got := s.CycleBreak(0b1010); got != 0b0101 {
		t.Errorf("CycleBreak(1010) = %04b, want 0101", got)
	}
	if got := s.CyclePos(0b0101); got != 0 {
		t.Errorf("CyclePos(0101) = %d, want 0", got)
	}
	if got := s.CyclePos(0b1010); got != 1 {
		t.Errorf("CyclePos(1010) = %d, want 1", got)
	}
	// 0001's cycle has full length 4 and break node 0001.
	if got := s.CycleLen(0b0001); got != 4 {
		t.Errorf("CycleLen(0001) = %d, want 4", got)
	}
	if got := s.CyclePos(0b0100); got != 2 {
		t.Errorf("CyclePos(0100) = %d, want 2", got)
	}
}

func TestShuffleCycleInvariants(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6} {
		s := NewShuffleExchange(n)
		for u := 0; u < s.Nodes(); u++ {
			l := s.CycleLen(u)
			if n%l != 0 {
				t.Fatalf("n=%d: CycleLen(%d) = %d does not divide n", n, u, l)
			}
			// All cycle members share break node, length and level.
			br, lev := s.CycleBreak(u), s.Level(u)
			v := s.RotLeft(u)
			for v != u {
				if s.CycleBreak(v) != br || s.CycleLen(v) != l || s.Level(v) != lev {
					t.Fatalf("n=%d: cycle of %d is inconsistent at %d", n, u, v)
				}
				v = s.RotLeft(v)
			}
			// Position advances by one per shuffle step, mod cycle length.
			if got, want := s.CyclePos(s.RotLeft(u)), (s.CyclePos(u)+1)%l; got != want {
				t.Fatalf("n=%d: CyclePos(rot(%d)) = %d, want %d", n, u, got, want)
			}
		}
	}
}

func TestShuffleDistanceSymmetryNotAssumed(t *testing.T) {
	// Shuffle links are directed; distance need not be symmetric, but must
	// always be reachable (the network is strongly connected).
	s := NewShuffleExchange(4)
	for a := 0; a < s.Nodes(); a++ {
		for b := 0; b < s.Nodes(); b++ {
			if d := s.Distance(a, b); d < 0 {
				t.Fatalf("unreachable: %d -> %d", a, b)
			} else if d > 3*s.Dims() {
				t.Fatalf("Distance(%d,%d) = %d exceeds 3n", a, b, d)
			}
		}
	}
}

func TestDegree(t *testing.T) {
	m := NewMesh2D(3)
	if got := Degree(m, m.NodeAt(0, 0)); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if got := Degree(m, m.NodeAt(1, 0)); got != 3 {
		t.Errorf("edge degree = %d, want 3", got)
	}
	if got := Degree(m, m.NodeAt(1, 1)); got != 4 {
		t.Errorf("center degree = %d, want 4", got)
	}
}

func TestHypercubeLevelQuick(t *testing.T) {
	h := NewHypercube(16)
	if err := quick.Check(func(u uint16) bool {
		return h.Level(int(u)) == bits.OnesCount16(u)
	}, nil); err != nil {
		t.Error(err)
	}
}
