package core

import (
	"fmt"

	"repro/internal/topology"
)

// Queue classes of the shuffle-exchange scheme: two phases, each with the
// two dateline channels that break the shuffle cycles (Section 5: "each node
// will have 4 queues, and an injection and a delivery queue").
const (
	ClassP1C0 QueueClass = 0 // phase 1, before crossing the cycle's dateline
	ClassP1C1 QueueClass = 1 // phase 1, after crossing the dateline
	ClassP2C0 QueueClass = 2 // phase 2, before crossing the dateline
	ClassP2C1 QueueClass = 3 // phase 2, after crossing the dateline
)

// shuffleWork packs the per-packet bookkeeping of the shuffle-exchange
// algorithm into the 32-bit scratch word: the total number of shuffle steps
// taken (k) and the shuffle count at which the packet switched to phase 2.
func shuffleWork(k, kSwitch int) uint32 { return uint32(k) | uint32(kSwitch)<<8 }

func shuffleK(w uint32) int       { return int(w & 0xff) }
func shuffleKSwitch(w uint32) int { return int(w >> 8 & 0xff) }

// ShuffleExchangeAdaptive is the adaptive deadlock-free shuffle-exchange
// algorithm of Section 5. A packet takes 2n shuffle steps in two phases of n
// steps each; after k shuffles the bit currently in the least-significant
// position is the one that will occupy final position (n - k mod n) mod n,
// so the packet (which records k) knows whether to traverse the exchange
// link. Phase 1 performs the 0->1 corrections through static exchange links
// and, through the added dynamic links, may opportunistically perform 1->0
// corrections too; phase 2 performs the remaining 1->0 corrections. Packets
// are consumed as soon as they arrive at their destination.
//
// Deadlock freedom: exchanges in phase 1 ascend cycle levels and in phase 2
// descend them, and within each phase the shuffle cycles are broken with a
// dateline (the shuffle edge entering the cycle's minimum-address node):
// crossing it moves the packet from channel 0 to channel 1. Degenerate
// cycles (periodic addresses, length < n) can force a packet around a cycle
// more than once; a second dateline crossing stays in channel 1 and is
// guarded by a bubble condition (the move requires two free slots in the
// target queue), so the channel-1 ring of a cycle can never fill completely.
// The paper defers the formal routing function to [PGFS91], which was never
// published; the dateline-plus-bubble realization here is verified
// mechanically by the qdg package and empirically by the deadlock watchdog.
type ShuffleExchangeAdaptive struct {
	Derived
	net     *topology.ShuffleExchange
	dynamic bool // offer the phase-1 dynamic 1->0 exchange links
	eager   bool // offer the early phase switch (extension, see below)
}

// NewShuffleExchangeAdaptive returns the Section 5 algorithm on the 2^dims
// node shuffle-exchange network.
func NewShuffleExchangeAdaptive(dims int) *ShuffleExchangeAdaptive {
	return newShuffle(dims, true, false)
}

// NewShuffleExchangeStatic returns the underlying scheme without the dynamic
// links: every 1->0 correction waits for phase 2. Ablation baseline.
func NewShuffleExchangeStatic(dims int) *ShuffleExchangeAdaptive {
	return newShuffle(dims, false, false)
}

// NewShuffleExchangeEager returns the adaptive scheme extended with an early
// phase switch: a packet may enter phase 2 before completing its n phase-1
// shuffle steps as soon as none of its remaining unexamined phase-1
// positions needs a 0->1 correction (phase 2 can handle everything left).
// This shortens paths — phase 2 then ends after kSwitch+n < 2n shuffles —
// at no cost in queues; the extra internal transition descends the phase
// order, so the QDG certification is unaffected. An extension beyond the
// paper, kept separate so the published scheme stays exactly Section 5.
func NewShuffleExchangeEager(dims int) *ShuffleExchangeAdaptive {
	return newShuffle(dims, true, true)
}

func newShuffle(dims int, dynamic, eager bool) *ShuffleExchangeAdaptive {
	s := &ShuffleExchangeAdaptive{net: topology.NewShuffleExchange(dims), dynamic: dynamic, eager: eager}
	s.Derived = Derive(s)
	return s
}

func (s *ShuffleExchangeAdaptive) Name() string {
	switch {
	case s.eager:
		return "shuffle-eager"
	case s.dynamic:
		return "shuffle-adaptive"
	default:
		return "shuffle-static"
	}
}

func (s *ShuffleExchangeAdaptive) Topology() topology.Topology { return s.net }
func (s *ShuffleExchangeAdaptive) NumClasses() int             { return 4 }

func (s *ShuffleExchangeAdaptive) ClassName(c QueueClass) string {
	switch c {
	case ClassP1C0:
		return "p1c0"
	case ClassP1C1:
		return "p1c1"
	case ClassP2C0:
		return "p2c0"
	case ClassP2C1:
		return "p2c1"
	}
	return fmt.Sprintf("class%d", c)
}

func (s *ShuffleExchangeAdaptive) Props() Props {
	// Adaptive but not minimal, and the bubble guard needs atomic
	// check-then-move semantics, so the algorithm runs on both engines but
	// its deadlock guarantee is only exact on the atomic one.
	return Props{Minimal: false, FullyAdaptive: false, Credits: true}
}

func (s *ShuffleExchangeAdaptive) MaxHops(src, dst int32) int {
	// At most 2n shuffle steps and n exchange steps (Theorem 3). Shuffle
	// steps at the two fixed points of the rotation are internal and do not
	// traverse links, so 3n also bounds the link hops. The eager variant
	// trades up to n saved phase-1 steps for up to n-1 "riding" steps that
	// realign the rotation, so its worst case is k0 + n + (n-1) shuffles
	// plus n exchanges: bounded by 4n.
	if s.eager {
		return 4 * s.net.Dims()
	}
	return 3 * s.net.Dims()
}

// examTarget returns the destination bit that the least-significant bit of
// the current address must match after k shuffle steps: an exchange taken
// now flips the bit that ends at final position (n - k mod n) mod n.
func (s *ShuffleExchangeAdaptive) examTarget(dst int32, k int) int {
	n := s.net.Dims()
	p := (n - k%n) % n
	return int(dst) >> p & 1
}

// noZeroFixRemains reports whether none of the phase-1 exam positions still
// ahead of a packet at node with shuffle count k (counts k..n-1) requires a
// 0->1 correction. The bit examined at count j currently sits at position
// (k-j) mod n of the node address and must match destination bit
// (n - j mod n) mod n.
func (s *ShuffleExchangeAdaptive) noZeroFixRemains(node, dst int32, k int) bool {
	n := s.net.Dims()
	for j := k; j < n; j++ {
		cur := int(node) >> (((k-j)%n + n) % n) & 1
		want := s.examTarget(dst, j)
		if cur == 0 && want == 1 {
			return false
		}
	}
	return true
}

func (s *ShuffleExchangeAdaptive) Inject(src, dst int32) (QueueClass, uint32) {
	if incorrectZeros(src, dst) == 0 {
		// Only 1->0 corrections (or none): skip phase 1 entirely.
		return ClassP2C0, shuffleWork(0, 0)
	}
	return ClassP1C0, shuffleWork(0, 0)
}

// PortMask states the scheme in the grouped encoding (4 classes). Phase 1
// performs mandatory 0->1 corrections through the static exchange and
// otherwise shuffles on; a deferred 1->0 correction may also take the
// dynamic exchange, which keeps the shuffle count where the static shuffle
// advances it — the only state where Work and DynWork diverge. Phase 2
// performs the 1->0 corrections. The moves that are not plain: the phase
// change once phase 1's n steps are spent, the eager variant's early switch
// (listed before the other moves), the shuffle step at a fixed point of
// the rotation (internal: the packet stays put and its count advances), and
// the credited shuffle steps onto a degenerate cycle's channel-1 ring.
func (s *ShuffleExchangeAdaptive) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	n := s.net.Dims()
	k := shuffleK(work)
	bit0 := int(node) & 1
	want := s.examTarget(dst, k)
	pm.grouped(0, 0)
	pm.special()
	switch class {
	case ClassP1C0, ClassP1C1:
		if k == n {
			// Phase 1 budget exhausted: change phase in place.
			pm.internal(ClassP2C0, shuffleWork(k, k))
			return false
		}
		if s.eager && s.noZeroFixRemains(node, dst, k) {
			// Extension: none of the remaining phase-1 positions needs a
			// 0->1 correction, so phase 2 can take over immediately and the
			// packet saves up to n-k shuffle steps.
			pm.internal(ClassP2C0, shuffleWork(k, k))
		}
		if bit0 == 0 && want == 1 {
			// Mandatory 0->1 correction: phase 2 cannot perform it.
			pm.Static[ClassP1C0] = 1 << topology.ExchangePort
			pm.Work = work
			return pm.Internal == 0
		}
		plain := s.shuffleStep(node, ClassP1C0, class, work, pm)
		if bit0 == 1 && want == 0 && s.dynamic {
			// Deferred correction: shuffle on statically, or take the
			// dynamic exchange link and do the 1->0 fix now.
			pm.Dyn = 1 << topology.ExchangePort
			pm.DynClass = ClassP1C0
			pm.DynWork = work
		}
		return plain && pm.Internal == 0
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
			return s.shuffleStep(node, ClassP2C0, class, work, pm)
		}
		if bit0 == 1 && want == 0 {
			pm.Static[ClassP2C0] = 1 << topology.ExchangePort
			pm.Work = work
			return true
		}
		if bit0 == 0 && want == 1 {
			panic(fmt.Sprintf("shuffle-exchange: 0->1 correction required in phase 2 at node %d for %d (k=%d)", node, dst, k))
		}
		return s.shuffleStep(node, ClassP2C0, class, work, pm)
	}
	panic(fmt.Sprintf("shuffle-exchange: invalid queue class %d", class))
}

// shuffleStep adds the static shuffle step from node to pm, for the phase
// base class (ClassP1C0 or ClassP2C0) and current channel, and reports
// whether it is plain. The step crossing the cycle's dateline moves the
// packet to channel 1. At a fixed point of the rotation (0...0 / 1...1)
// the step is internal: the packet stays put and its count advances.
func (s *ShuffleExchangeAdaptive) shuffleStep(node int32, base, cur QueueClass, w uint32, pm *PortMasks) bool {
	nw := shuffleWork(shuffleK(w)+1, shuffleKSwitch(w))
	next := s.net.RotLeft(int(node))
	if next == int(node) {
		pm.internal(cur, nw)
		return false
	}
	channel := cur - base // 0 or 1
	crossing := next == s.net.CycleBreak(int(node))
	if crossing {
		channel = 1
	}
	pm.Static[base+channel] = 1 << topology.ShufflePort
	pm.Work = nw
	// In a full-length cycle a packet stays fewer than CycleLen steps, so
	// it crosses the dateline at most once and the channel-1 queues stay
	// acyclic: ordinary blocking flow control suffices. In a degenerate
	// (periodic-address) cycle a packet may wrap again, closing the
	// channel-1 ring; every move onto that ring is then *credited* (bubble
	// flow control): an entry from channel 0 must leave a spare slot on the
	// ring (Credit 2) and a continuation may not over-commit its target
	// (Credit 1), which keeps the ring from ever filling completely.
	if channel == 0 || s.net.CycleLen(int(node)) == s.net.Dims() {
		return true
	}
	pm.Credit = 1
	if crossing && cur == base {
		pm.Credit = 2
	}
	return false
}
