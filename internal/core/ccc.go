package core

import (
	"fmt"

	"repro/internal/topology"
)

// Queue classes of the cube-connected-cycles scheme: three phases, each
// with the two dateline channels that break the vertex cycles.
const (
	ClassCCCP1C0 QueueClass = 0 // phase 1 (0->1 fixes), before the dateline
	ClassCCCP1C1 QueueClass = 1
	ClassCCCP2C0 QueueClass = 2 // phase 2 (1->0 fixes)
	ClassCCCP2C1 QueueClass = 3
	ClassCCCP3C0 QueueClass = 4 // phase 3 (ring alignment to the target position)
	ClassCCCP3C1 QueueClass = 5
)

// CCCAdaptive is an adaptive deadlock-free packet routing for the
// cube-connected cycles, built with the paper's machinery exactly as its
// introduction claims is possible ("hypercubes, meshes, shuffle-exchanges,
// cube-connected cycles, and other networks [PFGS91]"; the companion report
// was never published, so this is a reconstruction in the same style):
//
//   - Phase 1 rides each vertex cycle forward; position i is the only place
//     dimension i can be corrected, so a 0->1 correction is taken (static)
//     the moment its position comes up, and a 1->0 correction may be taken
//     early through a dynamic link. The packet changes phase the moment no
//     0->1 correction remains, folding the switch into the last cube hop.
//   - Phase 2 rides forward again performing the remaining 1->0 fixes.
//   - Phase 3 rides the (now correct) vertex's cycle to the target position.
//
// Deadlock freedom: cube hops ascend Hamming weight in phase 1 and descend
// it in phase 2; every vertex cycle is a physical ring of length exactly n,
// broken by a dateline at position 0 with two channels per phase — a packet
// stays at most n-1 ring steps per visit, so one crossing suffices and no
// bubble guard is needed (the CCC has no degenerate cycles, unlike the
// shuffle-exchange). Six central queues per node, plus injection and
// delivery; at most 4n-3 hops per packet.
type CCCAdaptive struct {
	Derived
	net     *topology.CCC
	dynamic bool
}

// NewCCCAdaptive returns the adaptive CCC scheme of order dims.
func NewCCCAdaptive(dims int) *CCCAdaptive { return newCCC(dims, true) }

// NewCCCStatic returns the scheme without the phase-1 dynamic 1->0 links.
func NewCCCStatic(dims int) *CCCAdaptive { return newCCC(dims, false) }

func newCCC(dims int, dynamic bool) *CCCAdaptive {
	c := &CCCAdaptive{net: topology.NewCCC(dims), dynamic: dynamic}
	c.Derived = Derive(c)
	return c
}

func (c *CCCAdaptive) Name() string {
	if c.dynamic {
		return "ccc-adaptive"
	}
	return "ccc-static"
}

func (c *CCCAdaptive) Topology() topology.Topology { return c.net }
func (c *CCCAdaptive) NumClasses() int             { return 6 }

func (c *CCCAdaptive) ClassName(q QueueClass) string {
	names := [...]string{"p1c0", "p1c1", "p2c0", "p2c1", "p3c0", "p3c1"}
	if int(q) < len(names) {
		return names[q]
	}
	return fmt.Sprintf("class%d", q)
}

func (c *CCCAdaptive) Props() Props { return Props{} }

func (c *CCCAdaptive) MaxHops(src, dst int32) int {
	// <= n-1 ring steps in each of the three phases plus <= n cube hops.
	return 4 * c.net.Dims()
}

// phase1Class returns the class a packet entering vertex w in phase 1 or 2
// should start in, folding phase changes into the move that completes the
// previous phase's work.
func (c *CCCAdaptive) entryClass(w, wDst int32) QueueClass {
	if incorrectZeros(w, wDst) != 0 {
		return ClassCCCP1C0
	}
	if incorrectOnes(w, wDst) != 0 {
		return ClassCCCP2C0
	}
	return ClassCCCP3C0
}

func (c *CCCAdaptive) Inject(src, dst int32) (QueueClass, uint32) {
	w := int32(c.net.Vertex(int(src)))
	wd := int32(c.net.Vertex(int(dst)))
	return c.entryClass(w, wd), 0
}

// PortMask states the scheme in the per-port encoding (six classes outgrow
// the grouped shape). Phase 1 takes a 0->1 correction the moment its
// position comes up (a forced cube hop, whose target class folds the phase
// change via entryClass: entering a new vertex cycle resets the channel,
// and the last 0->1 fix proceeds straight into the next phase's queue);
// otherwise it rides the cycle forward, and may fix an incorrect 1 early
// through the dynamic cube link. Phase 2 does the same for the 1->0
// corrections, and phase 3 rides the correct vertex's cycle to the target
// position. The phase changes in place are unreachable fallbacks: phase
// changes fold into cube hops.
func (c *CCCAdaptive) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	w := int32(c.net.Vertex(int(node)))
	i := c.net.Position(int(node))
	wd := int32(c.net.Vertex(int(dst)))
	bit := uint32(1) << uint(i)
	pm.perPort(0)
	switch class {
	case ClassCCCP1C0, ClassCCCP1C1:
		zeros := incorrectZeros(w, wd)
		switch {
		case zeros&bit != 0:
			pm.StaticMask = 1 << topology.CCCCube
			pm.PortClass[topology.CCCCube] = c.entryClass(w^int32(bit), wd)
		case zeros != 0:
			pm.StaticMask = 1 << topology.CCCRingPlus
			pm.PortClass[topology.CCCRingPlus] = c.ringClass(node, ClassCCCP1C0, class)
			if c.dynamic && incorrectOnes(w, wd)&bit != 0 {
				pm.Dyn = 1 << topology.CCCCube
				pm.DynClass = ClassCCCP1C0
			}
		default:
			pm.only(ClassCCCP2C0, 0)
			return false
		}
	case ClassCCCP2C0, ClassCCCP2C1:
		ones := incorrectOnes(w, wd)
		switch {
		case ones&bit != 0:
			pm.StaticMask = 1 << topology.CCCCube
			pm.PortClass[topology.CCCCube] = c.entryClass(w^int32(bit), wd)
		case ones != 0:
			pm.StaticMask = 1 << topology.CCCRingPlus
			pm.PortClass[topology.CCCRingPlus] = c.ringClass(node, ClassCCCP2C0, class)
		default:
			pm.only(ClassCCCP3C0, 0)
			return false
		}
	case ClassCCCP3C0, ClassCCCP3C1:
		pm.StaticMask = 1 << topology.CCCRingPlus
		pm.PortClass[topology.CCCRingPlus] = c.ringClass(node, ClassCCCP3C0, class)
	default:
		panic(fmt.Sprintf("ccc: invalid queue class %d", class))
	}
	return true
}

// ringClass returns the class of the forward ring step for the phase base
// class and current channel, handling the dateline: the edge entering
// position 0 moves the packet from channel 0 to channel 1. A packet stays
// fewer than n steps per ring visit, so a second crossing cannot occur.
func (c *CCCAdaptive) ringClass(node int32, base, cur QueueClass) QueueClass {
	channel := cur - base
	if c.net.Position(c.net.Neighbor(int(node), topology.CCCRingPlus)) == 0 {
		channel = 1
	}
	return base + channel
}
