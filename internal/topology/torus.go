package topology

import "fmt"

// Torus is a k-dimensional torus: a mesh whose borders wrap around. Port
// 2*i moves +1 (mod side) in dimension i, port 2*i+1 moves -1. Like a
// non-binary Mesh it reads node coordinates from a table (coordTable).
type Torus struct {
	shape  []int
	stride []int
	coords []int32 // coordTable of shape, or nil when too large
	nodes  int
}

// NewTorus returns the torus with the given per-dimension side lengths.
// Sides of length 1 or 2 are rejected: they would create self-loops or
// parallel links, which the buffered node model does not support.
func NewTorus(shape ...int) *Torus {
	if len(shape) == 0 {
		panic("topology: torus needs at least one dimension")
	}
	t := &Torus{shape: append([]int(nil), shape...), stride: make([]int, len(shape)), nodes: 1}
	for i, s := range shape {
		if s < 3 {
			panic(fmt.Sprintf("topology: torus side %d must be >= 3, got %d", i, s))
		}
		t.stride[i] = t.nodes
		t.nodes *= s
	}
	t.coords = coordTable(t.shape, t.nodes)
	return t
}

// NewTorus2D returns the side x side 2-dimensional torus.
func NewTorus2D(side int) *Torus { return NewTorus(side, side) }

// Dims returns the number of dimensions.
func (t *Torus) Dims() int { return len(t.shape) }

// Shape returns the per-dimension side lengths. The caller must not modify it.
func (t *Torus) Shape() []int { return t.shape }

func (t *Torus) Name() string {
	s := "torus("
	for i, d := range t.shape {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(d)
	}
	return s + ")"
}

func (t *Torus) Nodes() int { return t.nodes }
func (t *Torus) Ports() int { return 2 * len(t.shape) }

// Coord returns the coordinate of u along dimension i.
func (t *Torus) Coord(u, i int) int {
	if t.coords != nil {
		return int(t.coords[u*len(t.shape)+i])
	}
	return u / t.stride[i] % t.shape[i]
}

// NodeAt returns the node id at the given coordinates.
func (t *Torus) NodeAt(coord ...int) int {
	if len(coord) != len(t.shape) {
		panic("topology: wrong coordinate count")
	}
	u := 0
	for i, c := range coord {
		if c < 0 || c >= t.shape[i] {
			panic(fmt.Sprintf("topology: coordinate %d out of range: %d", i, c))
		}
		u += c * t.stride[i]
	}
	return u
}

func (t *Torus) Neighbor(u, p int) int {
	if p < 0 || p >= 2*len(t.shape) {
		return None
	}
	dim, dir := p/2, 1-2*(p&1)
	side := t.shape[dim]
	c := t.Coord(u, dim)
	nc := c + dir
	if nc < 0 {
		nc += side
	} else if nc >= side {
		nc -= side
	}
	return u + (nc-c)*t.stride[dim]
}

func (t *Torus) ReversePort(u, p int) int {
	if p < 0 || p >= t.Ports() {
		return None
	}
	return p ^ 1
}

func (t *Torus) PortTo(u, v int) int {
	for p := 0; p < t.Ports(); p++ {
		if t.Neighbor(u, p) == v {
			return p
		}
	}
	return None
}

// Distance is the sum over dimensions of the wrap-aware coordinate distance.
func (t *Torus) Distance(a, b int) int {
	d := 0
	for i, side := range t.shape {
		diff := t.Coord(a, i) - t.Coord(b, i)
		if diff < 0 {
			diff = -diff
		}
		if side-diff < diff {
			diff = side - diff
		}
		d += diff
	}
	return d
}
