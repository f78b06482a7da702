package core

import (
	"fmt"
	"math/bits"

	"repro/internal/topology"
)

// The per-algorithm Candidates functions below are the Move-list statements
// of each routing function that the algorithms carried before PortMask
// became their only statement. They are the reference the derived
// Candidates is held to (TestPortMaskMatchesCandidatesReachable): an
// independent, move-by-move reading of the paper's rules.

// refCandidates dispatches to the reference statement of a.
func refCandidates(a Algorithm, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	switch a := a.(type) {
	case *MeshAdaptive:
		return refMeshAdaptive(a, node, class, work, dst, buf)
	case *MeshTwoPhase:
		return refMeshTwoPhase(a, node, class, work, dst, buf)
	case *MeshXY:
		return refMeshXY(a, node, class, work, dst, buf)
	case *HypercubeECube:
		return refECube(a, node, class, work, dst, buf)
	case *TorusAdaptive:
		return refTorus(a, node, class, work, dst, buf)
	case *ShuffleExchangeAdaptive:
		return refShuffle(a, node, class, work, dst, buf)
	case *CCCAdaptive:
		return refCCC(a, node, class, work, dst, buf)
	}
	panic(fmt.Sprintf("no reference statement for %s", a.Name()))
}

func refMeshAdaptive(m *MeshAdaptive, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, Deliver: true})
	}
	n, d := int(node), int(dst)
	switch class {
	case ClassA:
		if !m.hasAscending(n, d) {
			// Unreachable fallback: the last ascending correction enters
			// q_B directly on arrival (see below).
			return append(buf, Move{Node: node, Port: PortInternal, Class: ClassB, Kind: Static})
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
					Class: target, Kind: Static,
				})
			case cd < cn: // descend while in phase A: dynamic link
				port := m.mesh.DownPort(i)
				buf = append(buf, Move{
					Node: int32(m.mesh.Neighbor(n, port)), Port: int16(port),
					Class: ClassA, Kind: Dynamic,
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
					Class: ClassB, Kind: Static,
				})
			}
		}
		return buf
	}
	panic(fmt.Sprintf("%s: invalid queue class %d", m.name, class))
}

func refMeshTwoPhase(m *MeshTwoPhase, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	buf = refMeshAdaptive(&m.inner, node, class, work, dst, buf)
	// Drop the dynamic links; what remains is the underlying acyclic scheme.
	kept := buf[:0]
	for _, mv := range buf {
		if mv.Kind == Static {
			kept = append(kept, mv)
		}
	}
	return kept
}

func refMeshXY(m *MeshXY, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, Deliver: true})
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
			Class: nextClass, Kind: Static,
		})
	}
	panic("mesh-xy: unreachable")
}

func refECube(h *HypercubeECube, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, Deliver: true})
	}
	t := bits.TrailingZeros32(uint32(node ^ dst)) // lowest incorrect dimension
	return append(buf, Move{
		Node: node ^ 1<<t, Port: int16(t), Class: class + 1, Kind: Static,
	})
}

// refWrapMove builds the class-changing move across the wraparound link of
// dimension i. Wrap moves are static: they ascend the wrap-class DAG.
func refWrapMove(t *TorusAdaptive, node, dst int32, dirs, wraps uint32, i int, ascend bool) Move {
	port := 2 * i
	if !ascend {
		port++
	}
	next := int32(t.torus.Neighbor(int(node), port))
	nw := wraps | 1<<i
	return Move{
		Node: next, Port: int16(port),
		Class: t.class(nw, t.phaseFor(next, dst, dirs, nw)),
		Kind:  Static, Work: dirs,
	}
}

func refTorus(t *TorusAdaptive, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, Deliver: true, Work: work})
	}
	wraps := uint32(class >> 1)
	phase := class & 1
	dirs := work
	n := int(node)

	if phase == 0 {
		// Phase A: ascend statically, cross pending wraps statically,
		// descend through dynamic links while ascent remains.
		hasAscent := false
		for i := 0; i < t.dims(); i++ {
			if p := t.pending(node, dst, dirs, wraps, i); p.moving && p.ascend {
				hasAscent = true
				break
			}
		}
		if !hasAscent {
			return append(buf, Move{
				Node: node, Port: PortInternal, Class: t.class(wraps, 1),
				Kind: Static, Work: work,
			})
		}
		for i := 0; i < t.dims(); i++ {
			p := t.pending(node, dst, dirs, wraps, i)
			switch {
			case p.wrapNext:
				buf = append(buf, refWrapMove(t, node, dst, dirs, wraps, i, p.ascend))
			case p.moving && p.ascend:
				// The last ascending correction enters the phase-B queue of
				// the node it reaches, avoiding an internal phase change.
				next := int32(t.torus.Neighbor(n, 2*i))
				buf = append(buf, Move{
					Node: next, Port: int16(2 * i),
					Class: t.class(wraps, t.phaseFor(next, dst, dirs, wraps)),
					Kind:  Static, Work: work,
				})
			case p.moving: // descending while ascent remains: dynamic link
				buf = append(buf, Move{
					Node: int32(t.torus.Neighbor(n, 2*i+1)), Port: int16(2*i + 1),
					Class: class, Kind: Dynamic, Work: work,
				})
			}
		}
		return buf
	}

	// Phase B: descend statically; pending wrap crossings (necessarily in
	// descending dimensions sitting on their boundary) are also static.
	for i := 0; i < t.dims(); i++ {
		p := t.pending(node, dst, dirs, wraps, i)
		switch {
		case p.wrapNext:
			buf = append(buf, refWrapMove(t, node, dst, dirs, wraps, i, p.ascend))
		case p.moving && !p.ascend:
			buf = append(buf, Move{
				Node: int32(t.torus.Neighbor(n, 2*i+1)), Port: int16(2*i + 1),
				Class: class, Kind: Static, Work: work,
			})
		case p.moving:
			panic(fmt.Sprintf("torus-adaptive: ascending work in phase B at node %d for %d", node, dst))
		}
	}
	return buf
}

// refShuffleMove builds the static shuffle step from node with the given phase
// base class (ClassP1C0 or ClassP2C0) and current channel.
func refShuffleMove(s *ShuffleExchangeAdaptive, node int32, base, cur QueueClass, w uint32) Move {
	k := shuffleK(w)
	next := s.net.RotLeft(int(node))
	nw := shuffleWork(k+1, shuffleKSwitch(w))
	if next == int(node) {
		// Fixed point of the rotation (0...0 / 1...1): the shuffle step is
		// internal; the packet stays put and its count advances.
		return Move{Node: node, Port: PortInternal, Class: cur, Kind: Static, Work: nw}
	}
	channel := cur - base // 0 or 1
	crossing := next == s.net.CycleBreak(int(node))
	if crossing {
		channel = 1
	}
	mv := Move{
		Node: int32(next), Port: topology.ShufflePort,
		Class: base + channel, Kind: Static, Work: nw,
	}
	// In a full-length cycle a packet stays fewer than CycleLen steps, so
	// it crosses the dateline at most once and the channel-1 queues stay
	// acyclic: ordinary blocking flow control suffices. In a degenerate
	// (periodic-address) cycle a packet may wrap again, closing the
	// channel-1 ring; every move onto that ring is then *credited* (bubble
	// flow control): an entry from channel 0 must leave a spare slot on the
	// ring (Credit 2) and a continuation may not over-commit its target
	// (Credit 1), which keeps the ring from ever filling completely.
	if channel == 1 && s.net.CycleLen(int(node)) < s.net.Dims() {
		if crossing && cur-base == 0 {
			mv.Credit = 2
		} else {
			mv.Credit = 1
		}
	}
	return mv
}

func refShuffle(s *ShuffleExchangeAdaptive, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, Deliver: true, Work: work})
	}
	n := s.net.Dims()
	k := shuffleK(work)
	bit0 := int(node) & 1
	want := s.examTarget(dst, k)

	switch class {
	case ClassP1C0, ClassP1C1:
		if k == n {
			// Phase 1 budget exhausted: change phase in place.
			return append(buf, Move{
				Node: node, Port: PortInternal, Class: ClassP2C0, Kind: Static, Work: shuffleWork(k, k),
			})
		}
		if s.eager && s.noZeroFixRemains(node, dst, k) {
			// Extension: none of the remaining phase-1 positions needs a
			// 0->1 correction, so phase 2 can take over immediately and the
			// packet saves up to n-k shuffle steps.
			buf = append(buf, Move{
				Node: node, Port: PortInternal, Class: ClassP2C0, Kind: Static, Work: shuffleWork(k, k),
			})
		}
		exch := Move{
			Node: node ^ 1, Port: topology.ExchangePort,
			Class: ClassP1C0, Kind: Static, Work: work,
		}
		switch {
		case bit0 == 0 && want == 1:
			// Mandatory 0->1 correction: phase 2 cannot perform it.
			return append(buf, exch)
		case bit0 == 1 && want == 0:
			// Deferred correction: shuffle on statically, or take the
			// dynamic exchange link and do the 1->0 fix now.
			buf = append(buf, refShuffleMove(s, node, ClassP1C0, class, work))
			if s.dynamic {
				exch.Kind = Dynamic
				buf = append(buf, exch)
			}
			return buf
		default:
			return append(buf, refShuffleMove(s, node, ClassP1C0, class, work))
		}
	case ClassP2C0, ClassP2C1:
		if k >= shuffleKSwitch(work)+n {
			// All exam positions have been covered. With the paper's
			// kSwitch == n this is unreachable (2n shuffles realign the
			// rotation exactly at the destination); after an eager switch
			// the packet is bit-correct but rotationally misaligned and
			// rides the destination's shuffle cycle home (< CycleLen more
			// steps, consumed by the node == dst check above).
			if !s.eager {
				panic(fmt.Sprintf("shuffle-exchange: packet for %d stranded at %d after phase 2 (k=%d)", dst, node, k))
			}
			return append(buf, refShuffleMove(s, node, ClassP2C0, class, work))
		}
		if bit0 == 1 && want == 0 {
			return append(buf, Move{
				Node: node ^ 1, Port: topology.ExchangePort,
				Class: ClassP2C0, Kind: Static, Work: work,
			})
		}
		if bit0 == 0 && want == 1 {
			panic(fmt.Sprintf("shuffle-exchange: 0->1 correction required in phase 2 at node %d for %d (k=%d)", node, dst, k))
		}
		return append(buf, refShuffleMove(s, node, ClassP2C0, class, work))
	}
	panic(fmt.Sprintf("shuffle-exchange: invalid queue class %d", class))
}

// refRingMove builds the forward ring step for the given phase base class,
// handling the dateline: the edge entering position 0 moves the packet from
// channel 0 to channel 1. A packet stays fewer than n steps per ring visit,
// so a second crossing cannot occur.
func refRingMove(c *CCCAdaptive, node int32, base, cur QueueClass) Move {
	next := c.net.Neighbor(int(node), topology.CCCRingPlus)
	channel := cur - base
	if c.net.Position(next) == 0 {
		channel = 1
	}
	return Move{
		Node: int32(next), Port: topology.CCCRingPlus,
		Class: base + channel, Kind: Static,
	}
}

func refCCC(c *CCCAdaptive, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	if node == dst {
		return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, Deliver: true})
	}
	w := int32(c.net.Vertex(int(node)))
	i := c.net.Position(int(node))
	wd := int32(c.net.Vertex(int(dst)))
	bit := int32(1) << i

	switch class {
	case ClassCCCP1C0, ClassCCCP1C1:
		zeros := incorrectZeros(w, wd)
		switch {
		case zeros&uint32(bit) != 0:
			// Dimension i needs its 0->1 fix and this is the only position
			// that can perform it: forced cube hop. Entering a new vertex
			// cycle resets the channel; if this was the last 0->1 fix the
			// packet proceeds straight into the next phase's queue.
			nw := w ^ bit
			return append(buf, Move{
				Node: int32(c.net.NodeAt(int(nw), i)), Port: topology.CCCCube,
				Class: c.entryClass(nw, wd), Kind: Static,
			})
		case zeros != 0:
			// More 0->1 fixes ahead: ride the cycle forward; optionally fix
			// an incorrect 1 early through the dynamic cube link.
			buf = append(buf, refRingMove(c, node, ClassCCCP1C0, class))
			if c.dynamic && incorrectOnes(w, wd)&uint32(bit) != 0 {
				buf = append(buf, Move{
					Node: int32(c.net.NodeAt(int(w^bit), i)), Port: topology.CCCCube,
					Class: ClassCCCP1C0, Kind: Dynamic,
				})
			}
			return buf
		default:
			// Unreachable fallback: phase changes fold into cube hops.
			return append(buf, Move{Node: node, Port: PortInternal, Class: ClassCCCP2C0, Kind: Static})
		}
	case ClassCCCP2C0, ClassCCCP2C1:
		ones := incorrectOnes(w, wd)
		switch {
		case ones&uint32(bit) != 0:
			nw := w ^ bit
			return append(buf, Move{
				Node: int32(c.net.NodeAt(int(nw), i)), Port: topology.CCCCube,
				Class: c.entryClass(nw, wd), Kind: Static,
			})
		case ones != 0:
			return append(buf, refRingMove(c, node, ClassCCCP2C0, class))
		default:
			return append(buf, Move{Node: node, Port: PortInternal, Class: ClassCCCP3C0, Kind: Static})
		}
	case ClassCCCP3C0, ClassCCCP3C1:
		// Vertex correct; ride forward to the destination position.
		return append(buf, refRingMove(c, node, ClassCCCP3C0, class))
	}
	panic(fmt.Sprintf("ccc: invalid queue class %d", class))
}
