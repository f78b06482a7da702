// Package core implements the paper's primary contribution: routing
// functions in the style of Section 2, expressed over per-node queues and
// split into *static* links (whose queue dependency graph is a DAG, giving
// deadlock freedom) and *dynamic* links (extra adaptivity that may close
// cycles in the queue dependency graph, but is only ever offered when the
// packet retains a static escape path).
//
// The package provides:
//
//   - the Algorithm interface shared by the simulators, the QDG verifier and
//     the experiment harness;
//   - the fully-adaptive minimal mesh algorithm of Section 4 (generalized to
//     k dimensions) and its ablations (two-phase without dynamic links,
//     dimension-order with directional queues); on the mesh whose sides are
//     all 2 the first two are the hypercube algorithm of Section 3 and its
//     hung-DAG ablation, and the oblivious e-cube baseline joins them;
//   - the adaptive shuffle-exchange algorithm of Section 5 (4 queues,
//     dateline cycle breaking, dynamic 1->0 exchanges in phase 1);
//   - the 4-queue fully-adaptive minimal torus algorithm the paper sketches
//     at the end of Section 4, realized with direction classes and bubble
//     flow control.
package core

import "repro/internal/topology"

// QueueClass identifies one of a node's central routing queues. Classes are
// numbered 0..NumClasses-1; injection and delivery queues are handled
// separately by the engines, matching the paper's model in which every node
// has an injection and a delivery queue in addition to its central queues.
type QueueClass = uint8

// LinkKind distinguishes the two transition types of Section 2.
type LinkKind uint8

const (
	// Static transitions belong to the underlying acyclic queue dependency
	// graph; a packet always has at least one Static candidate (possibly
	// delivery), which is what makes the scheme deadlock-free.
	Static LinkKind = iota
	// Dynamic transitions are the paper's dynamic links: extra moves that
	// may close QDG cycles but are only taken when free space is found, and
	// always lead to a queue from which a Static route onward exists.
	Dynamic
)

func (k LinkKind) String() string {
	if k == Static {
		return "static"
	}
	return "dynamic"
}

// PortInternal marks a move that stays inside the current node (phase
// changes, delivery, and self-loop shuffle steps).
const PortInternal = -1

// Move is one candidate next placement for a packet, as produced by
// Algorithm.Candidates. A remote move names the physical output port; an
// internal move (Port == PortInternal) transfers the packet between queues
// of the same node without using a link.
type Move struct {
	Node    int32      // node holding the target queue
	Port    int16      // output port from the current node, or PortInternal
	Class   QueueClass // target queue class (meaningless when Deliver)
	Kind    LinkKind   // static or dynamic transition
	MinFree uint8      // free slots required in the target queue (>= 1)
	Credit  uint8      // credited flow control (see below); 0 for normal moves
	Deliver bool       // consume the packet at Node instead of queueing it
	Work    uint32     // packet scratch state after taking this move
}

// Credit semantics. Moves onto a bubble ring (the channel-1 queues of a
// degenerate shuffle cycle) use credit-based flow control: the sender may
// commit the packet only when the target queue's capacity minus its
// occupancy minus its already-committed inbound packets is at least Credit,
// and the commitment reserves a slot, so the packet can never stall inside
// the link buffers. Credit 2 marks a ring *entry* (it must leave a spare
// slot on the ring: the bubble), Credit 1 a ring *continuation* (it may not
// over-commit the target). Queue-level occupancy plus inbound then never
// exceeds ring capacity minus one, which rules out deadlock on the ring; see
// the shuffle-exchange algorithm and the sim package for the accounting.

// Props describes static properties of an algorithm, used by the harness
// and by the property tests to decide which invariants to assert.
type Props struct {
	// Minimal algorithms deliver every packet in exactly
	// Distance(src, dst) hops (counting link traversals).
	Minimal bool
	// FullyAdaptive algorithms offer, at injection time, every minimal
	// first hop as a candidate (the paper's definition of full adaptivity).
	FullyAdaptive bool
	// AtomicOnly algorithms rely on MinFree > 1 conditions (bubble flow
	// control) whose check-then-move must be atomic; they run on the atomic
	// engine only.
	AtomicOnly bool
	// Credits marks algorithms that emit credited moves (Move.Credit > 0,
	// the buffered-engine form of bubble reservations). Their target-queue
	// occupancy is read remotely at claim time, so the buffered engine must
	// maintain it with atomics; credit-free algorithms get plain counters.
	Credits bool
}

// Algorithm is a routing function in the sense of Section 2, expressed
// operationally: given a packet's current queue and destination, Candidates
// enumerates the legal next placements. Implementations must be stateless
// with respect to packets (all per-packet state lives in the Work word) and
// safe for concurrent use.
type Algorithm interface {
	// Name returns a short identifier such as "hypercube-adaptive".
	Name() string

	// Topology returns the network the algorithm routes on.
	Topology() topology.Topology

	// NumClasses returns the number of central queues per node.
	NumClasses() int

	// ClassName returns a short label for a queue class (for diagnostics
	// and the QDG/DOT exports), e.g. "qA".
	ClassName(c QueueClass) string

	// Inject returns the class of the first central queue a fresh packet
	// enters at src, and its initial scratch state. It corresponds to the
	// routing function applied to the injection queue.
	Inject(src, dst int32) (QueueClass, uint32)

	// Candidates appends to buf the legal moves for a packet in queue
	// (node, class) with scratch work, destined to dst, and returns the
	// extended slice. The engines guarantee buf has length 0; Candidates
	// must not retain it. Moves must be emitted in low-to-high port order
	// among remote moves, so the FirstFree selection policy matches the
	// paper's "fills its output buffers from low to high dimensions".
	//
	// The returned set must be non-empty (possibly a Deliver move) for any
	// state reachable from an Inject result, and must contain at least one
	// Static move: the routing-function constraint that guarantees every
	// packet can always progress through the underlying DAG.
	Candidates(node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move

	// MaxHops bounds the number of link traversals a packet from src to dst
	// may take; the engines assert it at delivery (livelock freedom).
	MaxHops(src, dst int32) int

	// Props reports the algorithm's static properties.
	Props() Props
}

// PortMasks describes a candidate set as port bitmasks: one uncredited,
// MinFree-1 remote move per set bit — exactly the moves Candidates emits, in
// ascending port order. Two encodings share the struct:
//
//   - Grouped (PerPort false; the two-phase mesh schemes): bit t of Static[c]
//     is a static move through port t into class c. Usable when the
//     algorithm has at most 4 central queues and its static moves cluster
//     by target class; consumers recover the class by scanning the four
//     masks, which for the two-class schemes is a one-probe loop.
//   - Per-port (PerPort true): bit t of StaticMask is a static move through
//     port t into PortClass[t]. Used when the class structure outgrows the
//     grouped shape (the torus's 2^(k+1) wrap classes, the CCC's six phase
//     classes).
//
// In both encodings bit t of Dyn is a dynamic move through port t into
// DynClass; the static masks and Dyn must be pairwise disjoint. Work is the
// packet's scratch state after any static move and DynWork after any
// dynamic move. The two usually coincide (and are both zero for the
// work-free hypercube and mesh schemes); they differ for the
// shuffle-exchange, whose deferred 1->0 corrections advance the shuffle
// count on the static shuffle step but not on the dynamic exchange.
type PortMasks struct {
	Static   [4]uint32 // grouped encoding: static moves into class c
	Dyn      uint32    // dynamic moves (through the shared dynamic buffer)
	DynClass QueueClass
	// PerPort selects the per-port encoding: static moves come from
	// StaticMask/PortClass and the Static array is ignored.
	PerPort    bool
	Work       uint32         // scratch after a static move
	DynWork    uint32         // scratch after a dynamic move
	StaticMask uint32         // per-port encoding: union of static move ports
	PortClass  [32]QueueClass // per-port encoding: target class per port
}

// StaticUnion returns the union of the static port masks under either
// encoding.
func (pm *PortMasks) StaticUnion() uint32 {
	if pm.PerPort {
		return pm.StaticMask
	}
	return pm.Static[0] | pm.Static[1] | pm.Static[2] | pm.Static[3]
}

// StaticClass returns the target class of the static move through port t
// (which must be set in the static masks) under either encoding.
func (pm *PortMasks) StaticClass(t int) QueueClass {
	if pm.PerPort {
		return pm.PortClass[t]
	}
	c := QueueClass(0)
	for pm.Static[c]&(1<<uint(t)) == 0 {
		c++
	}
	return c
}

// PortMaskRouter is an optional fast path for Algorithm implementations
// whose candidate sets from some states have the PortMasks shape (no
// internal, credited, or delivery moves, at most one scratch value per link
// kind). For every other state PortMask reports ok == false and the caller
// must fall back to Candidates. The fallback is per state, not per run: a
// partial implementor may decline any subset of states and the engines
// route exactly those packets through Candidates within the same cycle, so
// declining is always safe (the engine tests pin this with an implementor
// that declines half its states).
//
// The simulators use the interface to route their hottest scan without
// materializing Move values; implementations must keep it exactly
// consistent with Candidates, which the portmask property tests and the
// engine determinism tests cross-check. The result is written through pm
// (caller-owned scratch that the implementation fully overwrites on a true
// return) rather than returned, keeping the per-packet call free of a
// by-value struct copy.
type PortMaskRouter interface {
	PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool
}

// Packet is a message in flight. Engines copy packets by value; the struct
// is kept small deliberately (the 16K-node simulations keep a few hundred
// thousand of them alive).
type Packet struct {
	ID         int64
	Src, Dst   int32
	InjectedAt int64 // cycle at which the packet entered the injection queue
	Hops       uint16
	Class      QueueClass // central queue class the packet occupies / targets
	MinFree    uint8      // free slots its pending move requires (in-flight packets)
	Work       uint32     // algorithm scratch state
}

// PendingInject is one committed injection produced by a batched traffic
// source for the current cycle: node Node injects a packet destined to Dst.
// It lives here (rather than in the sim package, next to the BatchSource
// interface it serves) so traffic sources can implement batched filling
// without importing the engines.
type PendingInject struct {
	Node int32
	Dst  int32
}

// HopsMisrouted is the misroute flag, stored in the top bit of Packet.Hops
// rather than a new field so the struct stays 32 bytes. Set once a packet
// has been detoured off a minimal path by fault-degraded routing; such
// packets are exempt from the minimality and MaxHops delivery asserts.
const HopsMisrouted uint16 = 1 << 15

// HopCount returns the number of link traversals, excluding the flag bit.
func (p *Packet) HopCount() int { return int(p.Hops &^ HopsMisrouted) }

// Misrouted reports whether the packet ever left a minimal path.
func (p *Packet) Misrouted() bool { return p.Hops&HopsMisrouted != 0 }

// MarkMisrouted sets the misroute flag.
func (p *Packet) MarkMisrouted() { p.Hops |= HopsMisrouted }

// BufferClassOf maps a move to the link buffer it travels through in the
// buffered node model of Section 6: static transitions use the buffer
// associated with their target queue, dynamic transitions share the
// dedicated dynamic buffer (index NumClasses).
func BufferClassOf(a Algorithm, m Move) int {
	if m.Kind == Dynamic {
		return a.NumClasses()
	}
	return int(m.Class)
}
