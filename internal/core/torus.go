package core

import (
	"fmt"
	"math/bits"

	"repro/internal/topology"
)

// TorusAdaptive is a fully-adaptive minimal deadlock-free packet routing
// scheme for k-dimensional tori, realizing the extension the paper sketches
// at the end of Section 4 ("a fully-adaptive and minimal routing technique
// for packet-switching over tori can be achieved ... following an idea
// similar to the one presented in [GPS91]"). [GPS91] is an unpublished
// technical report, so this package uses a construction that the qdg
// verifier can check mechanically:
//
//   - At injection each packet fixes, per dimension, the minimal travel
//     direction (ties on even sides are broken deterministically — the one
//     place where the scheme is not fully adaptive).
//   - Packets are classified by the set of dimensions whose wraparound link
//     they have already crossed. Wrap sets only grow, so the 2^k wrap
//     classes form a DAG.
//   - Within a wrap class no move crosses a wraparound link, so the residual
//     problem is exactly mesh routing toward a per-dimension in-class target
//     (the final coordinate, or the wrap boundary if the crossing is still
//     ahead), solved with the paper's own Section 4 two-phase scheme,
//     including its dynamic links.
//
// This costs 2^(k+1) central queues per node (8 for the 2-dimensional
// torus) instead of the 4 the paper conjectures for 2 dimensions; DESIGN.md
// discusses the deviation. Queue class c encodes (wrapSet << 1) | phase.
type TorusAdaptive struct {
	Derived
	torus *topology.Torus
}

// MaxTorusDims is the most dimensions TorusAdaptive supports; it keeps
// 2^(k+1) queue classes per node.
const MaxTorusDims = 6

// NewTorusAdaptive returns the wrap-class torus algorithm.
func NewTorusAdaptive(shape ...int) *TorusAdaptive {
	t := &TorusAdaptive{torus: topology.NewTorus(shape...)}
	if t.torus.Dims() > MaxTorusDims {
		panic(fmt.Sprintf("core: torus-adaptive supports at most %d dimensions", MaxTorusDims))
	}
	t.Derived = Derive(t)
	return t
}

func (t *TorusAdaptive) Name() string                { return "torus-adaptive" }
func (t *TorusAdaptive) Topology() topology.Topology { return t.torus }
func (t *TorusAdaptive) NumClasses() int             { return 1 << (t.torus.Dims() + 1) }

func (t *TorusAdaptive) ClassName(c QueueClass) string {
	phase := "A"
	if c&1 == 1 {
		phase = "B"
	}
	return fmt.Sprintf("w%0*b%s", t.torus.Dims(), c>>1, phase)
}

func (t *TorusAdaptive) Props() Props {
	// Fully adaptive except for direction ties on even sides (documented).
	return Props{Minimal: true, FullyAdaptive: true}
}

func (t *TorusAdaptive) MaxHops(src, dst int32) int {
	return t.torus.Distance(int(src), int(dst))
}

// dirPlus reports the travel direction chosen for dimension i of a packet
// from src to dst: true for +1 (port 2i), false for -1 (port 2i+1). For a
// tie (distance exactly side/2) the direction alternates deterministically
// with the endpoints so opposing tie traffic spreads over both senses.
func (t *TorusAdaptive) dirPlus(src, dst int32, i int) bool {
	side := t.torus.Shape()[i]
	cs, cd := t.torus.Coord(int(src), i), t.torus.Coord(int(dst), i)
	fwd := ((cd-cs)%side + side) % side
	if fwd*2 == side {
		return (cs+cd+i)%2 == 0
	}
	return fwd*2 < side
}

func (t *TorusAdaptive) dims() int { return t.torus.Dims() }

// torusPending describes the residual movement of a packet in one dimension:
// the in-class mesh movement toward the target coordinate (ascending for +
// direction, descending for -), plus possibly a wraparound crossing once the
// in-class target (the wrap boundary) is reached.
type torusPending struct {
	done     bool // coordinate correct and no crossing ahead
	ascend   bool // in-class movement uses port 2i (+1 direction)
	moving   bool // in-class movement remains (c != in-class target)
	wrapNext bool // sitting on the wrap boundary, must cross it now
}

func (t *TorusAdaptive) pending(node, dst int32, dirs, wraps uint32, i int) torusPending {
	side := t.torus.Shape()[i]
	c, z := t.torus.Coord(int(node), i), t.torus.Coord(int(dst), i)
	plus := dirs&(1<<i) != 0
	wrapped := wraps&(1<<i) != 0
	needWrap := !wrapped && c != z && ((plus && z < c) || (!plus && z > c))
	target := z
	if needWrap {
		if plus {
			target = side - 1
		} else {
			target = 0
		}
	}
	if c == target {
		return torusPending{done: !needWrap, ascend: plus, wrapNext: needWrap}
	}
	return torusPending{ascend: plus, moving: true}
}

// phaseFor returns phase A (0) if the packet has ascending in-class
// movement at node, else phase B (1).
func (t *TorusAdaptive) phaseFor(node, dst int32, dirs, wraps uint32) QueueClass {
	for i := 0; i < t.dims(); i++ {
		p := t.pending(node, dst, dirs, wraps, i)
		if p.moving && p.ascend {
			return 0
		}
	}
	return 1
}

func (t *TorusAdaptive) class(wraps uint32, phase QueueClass) QueueClass {
	return QueueClass(wraps<<1) | phase
}

func (t *TorusAdaptive) Inject(src, dst int32) (QueueClass, uint32) {
	var dirs uint32
	for i := 0; i < t.dims(); i++ {
		if t.dirPlus(src, dst, i) {
			dirs |= 1 << i
		}
	}
	return t.class(0, t.phaseFor(src, dst, dirs, 0)), dirs
}

// PortMask states the scheme in the per-port encoding (wrap classes exceed
// the grouped shape's 4-class limit), from one pass over the dimensions:
// each dimension contributes at most one port (ascend, descend, or wrap
// crossing), and the phase of every endpoint follows from counts computed
// in the same pass instead of re-walking the dimensions per move the way
// pending/phaseFor do.
//
// Phase A ascends statically, crosses pending wraps statically, and
// descends through dynamic links while ascent remains; the last ascending
// correction enters the phase-B queue of the node it reaches. A phase-A
// packet without ascent (unreachable) changes phase in place. Phase B
// descends statically; its pending wrap crossings (necessarily in
// descending dimensions sitting on their boundary) are static too.
func (t *TorusAdaptive) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	k := t.dims()
	wraps := uint32(class >> 1)
	phase := class & 1
	dirs := work
	shape := t.torus.Shape()
	// Per-dimension residual state, computed once: which dimensions still
	// ascend or descend within the wrap class, which sit on their wrap
	// boundary, and (for the endpoint phases) which ascents are one step
	// from their in-class target.
	var ascMask, descMask, wrapMask, gapOne uint32
	var zc [6]int32
	for i := 0; i < k; i++ {
		c, z := t.torus.Coord(int(node), i), t.torus.Coord(int(dst), i)
		zc[i] = int32(z)
		plus := dirs&(1<<uint(i)) != 0
		needWrap := wraps&(1<<uint(i)) == 0 && c != z && ((plus && z < c) || (!plus && z > c))
		target := z
		if needWrap {
			if plus {
				target = shape[i] - 1
			} else {
				target = 0
			}
		}
		switch {
		case c == target && needWrap:
			wrapMask |= 1 << uint(i)
		case c == target:
			// done in this dimension
		case plus:
			ascMask |= 1 << uint(i)
			if target-c == 1 {
				gapOne |= 1 << uint(i)
			}
		default:
			descMask |= 1 << uint(i)
		}
	}
	if phase == 0 {
		if ascMask == 0 {
			pm.only(t.class(wraps, 1), work)
			return false
		}
		pm.perPort(dirs)
		pm.DynClass = class
		for m := wrapMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			p := 2 * i
			if dirs&(1<<uint(i)) == 0 {
				p++
			}
			// The other ascending dimensions are untouched by the crossing,
			// so the endpoint stays in phase A.
			pm.StaticMask |= 1 << uint(p)
			pm.PortClass[p] = t.class(wraps|1<<uint(i), 0)
		}
		for m := ascMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			nextPhase := QueueClass(1)
			if ascMask&^(1<<uint(i)) != 0 || gapOne&(1<<uint(i)) == 0 {
				nextPhase = 0 // ascent remains at the endpoint
			}
			pm.StaticMask |= 1 << uint(2*i)
			pm.PortClass[2*i] = t.class(wraps, nextPhase)
		}
		for m := descMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			pm.Dyn |= 1 << uint(2*i+1)
		}
		return true
	}
	if ascMask != 0 {
		panic(fmt.Sprintf("torus-adaptive: ascending work in phase B at node %d for %d", node, dst))
	}
	pm.perPort(dirs)
	for m := wrapMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		p := 2 * i
		nextPhase := QueueClass(1)
		if dirs&(1<<uint(i)) != 0 {
			// Crossing a + boundary lands at coordinate 0; ascent resumes
			// there unless the target coordinate is 0 itself.
			if zc[i] != 0 {
				nextPhase = 0
			}
		} else {
			p++
		}
		pm.StaticMask |= 1 << uint(p)
		pm.PortClass[p] = t.class(wraps|1<<uint(i), nextPhase)
	}
	for m := descMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		pm.StaticMask |= 1 << uint(2*i+1)
		pm.PortClass[2*i+1] = class
	}
	return true
}
