package core

import (
	"fmt"

	"repro/internal/topology"
)

// MeshAdaptive is the fully-adaptive minimal deadlock-free mesh algorithm of
// Section 4, generalized from 2 to k dimensions as the paper indicates. The
// mesh is hung from node (0,...,0) for phase A and from (n-1,...,n-1) for
// phase B. A phase-A packet moves toward higher coordinates through static
// links, and may also move toward lower coordinates through dynamic links as
// long as it still has some ascending correction left (the static escape
// path required by Section 2); once only descending corrections remain it
// changes to phase B, which descends statically. Two central queues per
// node, plus injection and delivery. On the mesh whose sides are all 2 it is
// the hypercube algorithm of Section 3 (NewHypercubeAdaptive).
type MeshAdaptive struct {
	mesh   *topology.Mesh
	name   string
	binary bool // every side is 2: coordinates are address bits, port i is dimension i
}

// hung returns the two-phase scheme hung from node 0 on mesh, under name.
func hung(name string, mesh *topology.Mesh) MeshAdaptive {
	return MeshAdaptive{mesh: mesh, name: name, binary: mesh.Binary()}
}

// NewMeshAdaptive returns the Section 4 algorithm on a k-dimensional mesh.
func NewMeshAdaptive(shape ...int) *MeshAdaptive {
	a := hung("mesh-adaptive", topology.NewMesh(shape...))
	return &a
}

func (m *MeshAdaptive) Name() string                { return m.name }
func (m *MeshAdaptive) Topology() topology.Topology { return m.mesh }
func (m *MeshAdaptive) NumClasses() int             { return 2 }
func (m *MeshAdaptive) ClassName(c QueueClass) string {
	if c == ClassA {
		return "qA"
	}
	return "qB"
}

func (m *MeshAdaptive) Props() Props { return Props{Minimal: true, FullyAdaptive: true} }

func (m *MeshAdaptive) MaxHops(src, dst int32) int {
	return m.mesh.Distance(int(src), int(dst))
}

// Inject is R~(i_s, d_m): q_A if some correction ascends (on the binary
// mesh, some incorrect bit of s is 0), else q_B.
func (m *MeshAdaptive) Inject(src, dst int32) (QueueClass, uint32) {
	if m.binary && incorrectZeros(src, dst) != 0 || !m.binary && m.hasAscending(int(src), int(dst)) {
		return ClassA, 0
	}
	return ClassB, 0
}

// hasAscending reports whether some coordinate of dst exceeds the
// corresponding coordinate of cur.
func (m *MeshAdaptive) hasAscending(cur, dst int) bool {
	for i := 0; i < m.mesh.Dims(); i++ {
		if m.mesh.Coord(dst, i) > m.mesh.Coord(cur, i) {
			return true
		}
	}
	return false
}

// PortMask implements the PortMaskRouter fast path with the grouped
// encoding. Phase A offers one static ascending move per dimension still
// below its target — all into q_A, except that a single ascending dimension
// one step from its target makes every ascending move the last phase-A
// correction, entering q_B — plus one dynamic descending move per dimension
// above its target. Phase B is one static q_B move per descending
// dimension. Only the internal phase change (no ascent left in q_A,
// unreachable in normal operation) falls back to Candidates.
func (m *MeshAdaptive) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if node == dst {
		return false
	}
	if m.binary {
		// Incorrect 0s ascend and incorrect 1s descend, one step each, so
		// a single incorrect 0 is the last phase-A correction. Each class
		// computes only the masks it offers.
		switch class {
		case ClassA:
			zeros := incorrectZeros(node, dst)
			if zeros == 0 {
				return false
			}
			*pm = PortMasks{Dyn: incorrectOnes(node, dst), DynClass: ClassA}
			if zeros&(zeros-1) == 0 {
				pm.Static[ClassB] = zeros
			} else {
				pm.Static[ClassA] = zeros
			}
			return true
		case ClassB:
			*pm = PortMasks{}
			pm.Static[ClassB] = incorrectOnes(node, dst)
			return true
		}
		return false
	}
	n, d := int(node), int(dst)
	var asc, desc uint32
	ascDims, gapOne := 0, false
	for i := 0; i < m.mesh.Dims(); i++ {
		cn, cd := m.mesh.Coord(n, i), m.mesh.Coord(d, i)
		switch {
		case cd > cn:
			asc |= 1 << uint(m.mesh.UpPort(i))
			ascDims++
			gapOne = cd-cn == 1
		case cd < cn:
			desc |= 1 << uint(m.mesh.DownPort(i))
		}
	}
	switch class {
	case ClassA:
		if asc == 0 {
			return false
		}
		*pm = PortMasks{Dyn: desc, DynClass: ClassA}
		if ascDims == 1 && gapOne {
			// The only ascending move is the last phase-A correction:
			// hasAscending is false at its endpoint, so it enters q_B.
			pm.Static[ClassB] = asc
		} else {
			// Either several ascending dimensions remain (each move leaves
			// the others pending) or the single one has gap > 1: every
			// endpoint still has ascent, so every move stays in q_A.
			pm.Static[ClassA] = asc
		}
		return true
	case ClassB:
		*pm = PortMasks{}
		pm.Static[ClassB] = desc
		return true
	}
	return false
}

func (m *MeshAdaptive) Candidates(node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, MinFree: 1, Deliver: true})
	}
	n, d := int(node), int(dst)
	switch class {
	case ClassA:
		if !m.hasAscending(n, d) {
			// Unreachable fallback: the last ascending correction enters
			// q_B directly on arrival (see below).
			return append(buf, Move{Node: node, Port: PortInternal, Class: ClassB, Kind: Static, MinFree: 1})
		}
		for i := 0; i < m.mesh.Dims(); i++ {
			cn, cd := m.mesh.Coord(n, i), m.mesh.Coord(d, i)
			switch {
			case cd > cn: // ascend: static link of the hung mesh
				port := m.mesh.UpPort(i)
				next := m.mesh.Neighbor(n, port)
				target := ClassA
				if !m.hasAscending(next, d) {
					target = ClassB // nothing left to correct in phase A
				}
				buf = append(buf, Move{
					Node: int32(next), Port: int16(port),
					Class: target, Kind: Static, MinFree: 1,
				})
			case cd < cn: // descend while in phase A: dynamic link
				port := m.mesh.DownPort(i)
				buf = append(buf, Move{
					Node: int32(m.mesh.Neighbor(n, port)), Port: int16(port),
					Class: ClassA, Kind: Dynamic, MinFree: 1,
				})
			}
		}
		return buf
	case ClassB:
		for i := 0; i < m.mesh.Dims(); i++ {
			if m.mesh.Coord(d, i) < m.mesh.Coord(n, i) {
				port := m.mesh.DownPort(i)
				buf = append(buf, Move{
					Node: int32(m.mesh.Neighbor(n, port)), Port: int16(port),
					Class: ClassB, Kind: Static, MinFree: 1,
				})
			}
		}
		return buf
	}
	panic(fmt.Sprintf("%s: invalid queue class %d", m.name, class))
}

// MeshTwoPhase is the first scheme of Section 4: the same two hung phases
// but without dynamic links. Phase A only ascends, so a packet whose
// destination is entirely "below" its source along one dimension and "above"
// along another has partial adaptivity, and a packet with only descending
// corrections has a single path. Ablation baseline for the dynamic links;
// on the mesh whose sides are all 2 it is NewHypercubeHung.
type MeshTwoPhase struct {
	inner MeshAdaptive
}

// NewMeshTwoPhase returns the static two-phase mesh scheme.
func NewMeshTwoPhase(shape ...int) *MeshTwoPhase {
	return &MeshTwoPhase{inner: hung("mesh-twophase", topology.NewMesh(shape...))}
}

func (m *MeshTwoPhase) Name() string                  { return m.inner.name }
func (m *MeshTwoPhase) Topology() topology.Topology   { return m.inner.mesh }
func (m *MeshTwoPhase) NumClasses() int               { return 2 }
func (m *MeshTwoPhase) ClassName(c QueueClass) string { return m.inner.ClassName(c) }
func (m *MeshTwoPhase) Props() Props                  { return Props{Minimal: true} }

func (m *MeshTwoPhase) MaxHops(src, dst int32) int { return m.inner.MaxHops(src, dst) }

func (m *MeshTwoPhase) Inject(src, dst int32) (QueueClass, uint32) {
	return m.inner.Inject(src, dst)
}

// PortMask is the adaptive mesh's mask with the dynamic links removed,
// mirroring what Candidates filters.
func (m *MeshTwoPhase) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if !m.inner.PortMask(node, class, work, dst, pm) {
		return false
	}
	pm.Dyn = 0
	return true
}

func (m *MeshTwoPhase) Candidates(node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	buf = m.inner.Candidates(node, class, work, dst, buf)
	// Drop the dynamic links; what remains is the underlying acyclic scheme.
	kept := buf[:0]
	for _, mv := range buf {
		if mv.Kind == Static {
			kept = append(kept, mv)
		}
	}
	return kept
}

// MeshXY is the oblivious dimension-order baseline (XY routing in two
// dimensions): each packet corrects its dimensions from low to high, each in
// a fixed direction. Store-and-forward dimension-order routing with a single
// central queue can deadlock head-on, so each (dimension, direction) pair
// gets its own queue class: transitions move to strictly higher classes or
// stay within a class while moving monotonically, so the QDG is acyclic.
// 2k queues per node for a k-dimensional mesh — already more than the
// adaptive scheme's two.
type MeshXY struct {
	mesh *topology.Mesh
}

// NewMeshXY returns the oblivious dimension-order mesh baseline.
func NewMeshXY(shape ...int) *MeshXY {
	return &MeshXY{mesh: topology.NewMesh(shape...)}
}

func (m *MeshXY) Name() string                { return "mesh-xy" }
func (m *MeshXY) Topology() topology.Topology { return m.mesh }
func (m *MeshXY) NumClasses() int             { return 2 * m.mesh.Dims() }
func (m *MeshXY) ClassName(c QueueClass) string {
	dir := "+"
	if c&1 == 1 {
		dir = "-"
	}
	return fmt.Sprintf("d%d%s", c/2, dir)
}

func (m *MeshXY) Props() Props { return Props{Minimal: true} }

func (m *MeshXY) MaxHops(src, dst int32) int { return m.mesh.Distance(int(src), int(dst)) }

// classFor returns the queue class of a packet at cur destined to dst: the
// (dimension, direction) of its next correction in dimension order.
func (m *MeshXY) classFor(cur, dst int) QueueClass {
	for i := 0; i < m.mesh.Dims(); i++ {
		cn, cd := m.mesh.Coord(cur, i), m.mesh.Coord(dst, i)
		if cd > cn {
			return QueueClass(2 * i)
		}
		if cd < cn {
			return QueueClass(2*i + 1)
		}
	}
	return 0 // cur == dst; class is irrelevant, delivery follows
}

func (m *MeshXY) Inject(src, dst int32) (QueueClass, uint32) {
	return m.classFor(int(src), int(dst)), 0
}

func (m *MeshXY) Candidates(node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, MinFree: 1, Deliver: true})
	}
	n, d := int(node), int(dst)
	for i := 0; i < m.mesh.Dims(); i++ {
		cn, cd := m.mesh.Coord(n, i), m.mesh.Coord(d, i)
		if cn == cd {
			continue
		}
		port := m.mesh.UpPort(i)
		if cd < cn {
			port = m.mesh.DownPort(i)
		}
		next := m.mesh.Neighbor(n, port)
		nextClass := m.classFor(next, d)
		if next == d {
			// Final hop: the packet is consumed on arrival; keep the
			// current class so queue classes stay monotone along any route.
			nextClass = class
		}
		return append(buf, Move{
			Node: int32(next), Port: int16(port),
			Class: nextClass, Kind: Static, MinFree: 1,
		})
	}
	panic("mesh-xy: unreachable")
}
