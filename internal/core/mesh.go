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
	Derived
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
	return hungAdaptive("mesh-adaptive", topology.NewMesh(shape...))
}

// hungAdaptive returns the two-phase scheme with its dynamic links.
func hungAdaptive(name string, mesh *topology.Mesh) *MeshAdaptive {
	a := hung(name, mesh)
	a.Derived = Derive(&a)
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

// PortMask states the scheme in the grouped encoding. Phase A offers one
// static ascending move per dimension still below its target — all into
// q_A, except that a single ascending dimension one step from its target
// makes every ascending move the last phase-A correction, entering q_B —
// plus one dynamic descending move per dimension above its target. Phase B
// is one static q_B move per descending dimension. A phase-A packet with no
// ascent left (unreachable: the last ascending correction enters q_B on
// arrival) changes phase in place.
func (m *MeshAdaptive) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	if class > ClassB {
		panic(fmt.Sprintf("%s: invalid queue class %d", m.name, class))
	}
	if m.binary {
		// Incorrect 0s ascend and incorrect 1s descend, one step each, so
		// a single incorrect 0 is the last phase-A correction. Each class
		// computes only the masks it offers.
		if class == ClassB {
			pm.grouped(0, 0)
			pm.Static[ClassB] = uint64(incorrectOnes(node, dst))
			return true
		}
		zeros := uint64(incorrectZeros(node, dst))
		if zeros == 0 {
			pm.only(ClassB, 0)
			return false
		}
		pm.grouped(uint64(incorrectOnes(node, dst)), ClassA)
		if zeros&(zeros-1) == 0 {
			pm.Static[ClassB] = zeros
		} else {
			pm.Static[ClassA] = zeros
		}
		return true
	}
	n, d := int(node), int(dst)
	var asc, desc uint64
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
	if class == ClassB {
		pm.grouped(0, 0)
		pm.Static[ClassB] = desc
		return true
	}
	if asc == 0 {
		pm.only(ClassB, 0)
		return false
	}
	pm.grouped(desc, ClassA)
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
}

// MeshTwoPhase is the first scheme of Section 4: the same two hung phases
// but without dynamic links. Phase A only ascends, so a packet whose
// destination is entirely "below" its source along one dimension and "above"
// along another has partial adaptivity, and a packet with only descending
// corrections has a single path. Ablation baseline for the dynamic links;
// on the mesh whose sides are all 2 it is NewHypercubeHung.
type MeshTwoPhase struct {
	Derived
	inner MeshAdaptive
}

// NewMeshTwoPhase returns the static two-phase mesh scheme.
func NewMeshTwoPhase(shape ...int) *MeshTwoPhase {
	return hungStatic("mesh-twophase", topology.NewMesh(shape...))
}

// hungStatic returns the two-phase scheme without its dynamic links.
func hungStatic(name string, mesh *topology.Mesh) *MeshTwoPhase {
	m := &MeshTwoPhase{inner: hung(name, mesh)}
	m.Derived = Derive(m)
	return m
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

// PortMask is the adaptive mesh's set with the dynamic links removed: what
// remains is the underlying acyclic scheme.
func (m *MeshTwoPhase) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	plain := m.inner.PortMask(node, class, work, dst, pm)
	pm.Dyn = 0
	return plain
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
	Derived
	mesh *topology.Mesh
}

// NewMeshXY returns the oblivious dimension-order mesh baseline.
func NewMeshXY(shape ...int) *MeshXY {
	m := &MeshXY{mesh: topology.NewMesh(shape...)}
	m.Derived = Derive(m)
	return m
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

// PortMask offers the one move of dimension order in the per-port
// encoding: the lowest dimension still to correct, in its direction.
func (m *MeshXY) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
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
		pm.perPort(0)
		pm.StaticMask = 1 << uint(port)
		pm.PortClass[port] = nextClass
		return true
	}
	panic("mesh-xy: unreachable")
}
