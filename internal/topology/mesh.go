package topology

import (
	"fmt"
	"math/bits"
)

// Mesh is a k-dimensional mesh with side lengths Shape. Node coordinates are
// mixed-radix: node id = c[0] + c[1]*Shape[0] + c[2]*Shape[0]*Shape[1] + ...
// A dimension has min(side-1, 2) ports, numbered low dimension first: a
// dimension of side 3 or more has a +1 port followed by a -1 port, a side-2
// dimension one port leading to the other coordinate, and a side-1
// dimension none. Border ports report Neighbor == None.
//
// The mesh whose sides are all 2 is the binary hypercube: node ids are
// address bit vectors, port i flips bit i, and distances and levels are
// popcounts.
//
// Any other mesh keeps every node's coordinates in a table built at
// construction (see coordTable), so routing decisions and distances read
// coordinates instead of dividing.
type Mesh struct {
	shape  []int
	stride []int
	coords []int32 // coordTable of shape, or nil: binary, or too large
	up     []int   // up[i] is dimension i's +1 port
	dim    []int   // dim[p] is the dimension port p moves along
	nodes  int
	binary bool // every side is 2
	cube   bool // built by NewHypercube
}

// NewMesh returns the mesh with the given per-dimension side lengths.
func NewMesh(shape ...int) *Mesh {
	if len(shape) == 0 {
		panic("topology: mesh needs at least one dimension")
	}
	m := &Mesh{shape: append([]int(nil), shape...), stride: make([]int, len(shape)),
		up: make([]int, len(shape)), nodes: 1, binary: true}
	for i, s := range shape {
		if s < 1 {
			panic(fmt.Sprintf("topology: mesh side %d must be >= 1, got %d", i, s))
		}
		m.stride[i] = m.nodes
		m.nodes *= s
		m.up[i] = len(m.dim)
		for p := 0; p < min(s-1, 2); p++ {
			m.dim = append(m.dim, i)
		}
		m.binary = m.binary && s == 2
	}
	if !m.binary {
		m.coords = coordTable(m.shape, m.nodes)
	}
	return m
}

// maxCoordTable caps a coordinate table at 2^20 entries (nodes x
// dimensions, 4 MB): a larger mesh or torus divides instead, so a spec near
// the node cap compiles without a table of hundreds of megabytes.
const maxCoordTable = 1 << 20

// coordTable returns the coordinates of every node of the mixed-radix
// shape, node u's at [u*len(shape), (u+1)*len(shape)), or nil when they
// would take more than maxCoordTable entries. Dimension i's column is runs
// of stride(i) equal values counting 0, 1, ..., side-1 and over again, so
// it is written in one pass that divides nothing.
func coordTable(shape []int, nodes int) []int32 {
	k := len(shape)
	if nodes > maxCoordTable/k {
		return nil
	}
	tab := make([]int32, nodes*k)
	stride := 1
	for i, side := range shape {
		for j := i; j < len(tab); {
			for c := int32(0); c < int32(side); c++ {
				for r := 0; r < stride; r++ {
					tab[j] = c
					j += k
				}
			}
		}
		stride *= side
	}
	return tab
}

// NewMesh2D returns the square 2-dimensional side x side mesh studied in
// Section 4 of the paper.
func NewMesh2D(side int) *Mesh { return NewMesh(side, side) }

// NewHypercube returns the binary hypercube with the given number of
// dimensions (1 <= dims <= 30): the mesh whose sides are all 2, named
// hypercube(dims).
func NewHypercube(dims int) *Mesh {
	if dims < 1 || dims > 30 {
		panic(fmt.Sprintf("topology: hypercube dimension %d out of range [1,30]", dims))
	}
	shape := make([]int, dims)
	for i := range shape {
		shape[i] = 2
	}
	m := NewMesh(shape...)
	m.cube = true
	return m
}

// Dims returns the number of dimensions.
func (m *Mesh) Dims() int { return len(m.shape) }

// Shape returns the per-dimension side lengths. The caller must not modify it.
func (m *Mesh) Shape() []int { return m.shape }

// Binary reports whether every side is 2, so that port i flips bit i.
func (m *Mesh) Binary() bool { return m.binary }

// Cube reports whether m was built by NewHypercube.
func (m *Mesh) Cube() bool { return m.cube }

func (m *Mesh) Name() string {
	if m.cube {
		return fmt.Sprintf("hypercube(%d)", len(m.shape))
	}
	s := "mesh("
	for i, d := range m.shape {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(d)
	}
	return s + ")"
}

func (m *Mesh) Nodes() int { return m.nodes }
func (m *Mesh) Ports() int { return len(m.dim) }

// UpPort returns the port that moves +1 along dimension i (side >= 2).
func (m *Mesh) UpPort(i int) int { return m.up[i] }

// DownPort returns the port that moves -1 along dimension i (side >= 2): a
// side-2 dimension's one port serves both directions.
func (m *Mesh) DownPort(i int) int {
	if m.shape[i] == 2 {
		return m.up[i]
	}
	return m.up[i] + 1
}

// Coord returns the coordinate of u along dimension i.
func (m *Mesh) Coord(u, i int) int {
	if m.coords != nil {
		return int(m.coords[u*len(m.shape)+i])
	}
	return u / m.stride[i] % m.shape[i]
}

// NodeAt returns the node id at the given coordinates.
func (m *Mesh) NodeAt(coord ...int) int {
	if len(coord) != len(m.shape) {
		panic("topology: wrong coordinate count")
	}
	u := 0
	for i, c := range coord {
		if c < 0 || c >= m.shape[i] {
			panic(fmt.Sprintf("topology: coordinate %d out of range: %d", i, c))
		}
		u += c * m.stride[i]
	}
	return u
}

func (m *Mesh) Neighbor(u, p int) int {
	if p < 0 || p >= len(m.dim) {
		return None
	}
	if m.binary {
		// Engine construction calls Neighbor for every node and port; on
		// the hypercube the coordinate divisions below double its cost.
		return u ^ (1 << p)
	}
	i := m.dim[p]
	c, dir := m.Coord(u, i), 1
	if p != m.up[i] || m.shape[i] == 2 && c == 1 {
		dir = -1
	}
	c += dir
	if c < 0 || c >= m.shape[i] {
		return None
	}
	return u + dir*m.stride[i]
}

// ReversePort swaps a dimension's +1 and -1 ports; a side-2 dimension's
// port is its own reverse.
func (m *Mesh) ReversePort(u, p int) int {
	if m.Neighbor(u, p) == None {
		return None
	}
	i := m.dim[p]
	return m.UpPort(i) + m.DownPort(i) - p
}

func (m *Mesh) PortTo(u, v int) int {
	for p := 0; p < m.Ports(); p++ {
		if m.Neighbor(u, p) == v {
			return p
		}
	}
	return None
}

// Distance is the Manhattan distance between the two nodes: the Hamming
// distance of their addresses when every side is 2.
func (m *Mesh) Distance(a, b int) int {
	if m.binary {
		return bits.OnesCount32(uint32(a ^ b))
	}
	d := 0
	for i := range m.shape {
		ca, cb := m.Coord(a, i), m.Coord(b, i)
		if ca > cb {
			d += ca - cb
		} else {
			d += cb - ca
		}
	}
	return d
}

// Level returns the coordinate sum of u: the level of u when the mesh is
// hung from node (0,...,0) as in Sections 3 and 4 of the paper.
func (m *Mesh) Level(u int) int {
	l := 0
	for i := range m.shape {
		l += m.Coord(u, i)
	}
	return l
}
