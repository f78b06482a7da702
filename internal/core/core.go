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
//     the experiment harness, whose one statement of an algorithm's moves is
//     PortMask, and the Move listing Candidates derives from it;
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

import (
	"math/bits"

	"repro/internal/topology"
)

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

// MaxPorts is the most ports per node an algorithm can route: one bit of a
// PortMasks word each.
const MaxPorts = 64

// Move is one candidate next placement for a packet, as listed by
// Candidates. A remote move names the physical output port; an internal
// move (Port == PortInternal) transfers the packet between queues of the
// same node without using a link. Every move needs one free slot in its
// target queue; a credited move needs Credit (see below).
type Move struct {
	Node    int32      // node holding the target queue
	Port    int16      // output port from the current node, or PortInternal
	Class   QueueClass // target queue class (meaningless when Deliver)
	Kind    LinkKind   // static or dynamic transition
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
	// Credits marks algorithms that emit credited moves (PortMasks.Credit,
	// the buffered-engine form of bubble reservations). A credited claim
	// reads the occupancy of a queue at another node, so the buffered
	// engine runs such algorithms on one worker.
	Credits bool
}

// Algorithm is a routing function in the sense of Section 2, expressed
// operationally: given a packet's current queue and destination, PortMask
// states the legal next placements. Implementations must be stateless with
// respect to packets (all per-packet state lives in the Work word) and safe
// for concurrent use.
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

	// PortMask is the routing function itself: the one statement of an
	// algorithm's moves, which the engines run and Candidates lists.
	PortMaskRouter

	// Candidates appends to buf the moves PortMask encodes and returns the
	// extended slice. Every implementation gets it by embedding Derived,
	// which runs the package function Candidates; it stays a method because
	// code outside this module's packages (the benchmark's layer loops)
	// calls it on an Algorithm.
	Candidates(node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move

	// MaxHops bounds the number of link traversals a packet from src to dst
	// may take; the engines assert it at delivery (livelock freedom).
	MaxHops(src, dst int32) int

	// Props reports the algorithm's static properties.
	Props() Props
}

// PortMasks is the candidate set of a packet in one state: one remote move
// per set port bit, in ascending port order, preceded by the internal moves
// or replaced by delivery. Two encodings share the port fields:
//
//   - Grouped (PerPort false; the two-phase mesh schemes and the
//     shuffle-exchange): bit t of Static[c] is a static move through port t
//     into class c. Usable when the algorithm has at most 4 central queues;
//     consumers recover the class by scanning the four masks, which for the
//     two-class schemes is a one-probe loop.
//   - Per-port (PerPort true): bit t of StaticMask is a static move through
//     port t into PortClass[t]. Used when the class structure outgrows the
//     grouped shape (the torus's 2^(k+1) wrap classes, the CCC's six phase
//     classes, the hop classes of e-cube and graph-adaptive, mesh-xy's
//     direction classes).
//
// In both encodings bit t of Dyn is a dynamic move through port t into
// DynClass; the static masks and Dyn must be pairwise disjoint. Work is the
// packet's scratch state after any static move and DynWork after any
// dynamic move. The two usually coincide (and are both zero for the
// work-free hypercube and mesh schemes); they differ for the
// shuffle-exchange, whose deferred 1->0 corrections advance the shuffle
// count on the static shuffle step but not on the dynamic exchange.
//
// A set whose moves are all remote and uncredited is plain, and PortMask
// reports it as such: the special fields below are then left unwritten.
// Otherwise Deliver says the packet has arrived (delivery is its only move,
// and no other field is read), or Internal counts the internal moves that
// precede the port moves and Credit is the credit of every static port move.
type PortMasks struct {
	Static     [4]uint64 // grouped encoding: static moves into class c
	Dyn        uint64    // dynamic moves (through the shared dynamic buffer)
	StaticMask uint64    // per-port encoding: union of static move ports
	Work       uint32    // scratch after a static move
	DynWork    uint32    // scratch after a dynamic move
	DynClass   QueueClass
	// PerPort selects the per-port encoding: static moves come from
	// StaticMask/PortClass and the Static array is ignored.
	PerPort bool

	Deliver  bool          // the packet is at its destination
	Credit   uint8         // credited flow control of the static port moves
	Internal uint8         // internal moves, at most 2
	IntClass [2]QueueClass // target of internal move i; the current class for an in-place step
	IntWork  [2]uint32     // scratch after internal move i

	PortClass [MaxPorts]QueueClass // per-port encoding: target class per port
}

// StaticUnion returns the union of the static port masks under either
// encoding.
func (pm *PortMasks) StaticUnion() uint64 {
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

// Class returns the target class of the move through port t, static or
// dynamic, and whether it is dynamic.
func (pm *PortMasks) Class(t int) (QueueClass, bool) {
	if pm.Dyn>>uint(t)&1 != 0 {
		return pm.DynClass, true
	}
	return pm.StaticClass(t), false
}

// grouped starts a plain grouped set with no static move yet, the dynamic
// moves dyn into dynClass, and zero scratch.
func (pm *PortMasks) grouped(dyn uint64, dynClass QueueClass) {
	pm.Static = [4]uint64{}
	pm.Dyn, pm.DynClass = dyn, dynClass
	pm.PerPort = false
	pm.Work, pm.DynWork = 0, 0
}

// perPort starts a plain per-port set with no static move yet, no dynamic
// move, and scratch work after every move.
func (pm *PortMasks) perPort(work uint32) {
	pm.StaticMask, pm.Dyn = 0, 0
	pm.PerPort = true
	pm.Work, pm.DynWork = work, work
}

// special clears the special fields, for a set PortMask reports as not
// plain.
func (pm *PortMasks) special() {
	pm.Deliver, pm.Credit, pm.Internal = false, 0, 0
}

// internal appends an internal move into class with scratch work.
func (pm *PortMasks) internal(class QueueClass, work uint32) {
	pm.IntClass[pm.Internal], pm.IntWork[pm.Internal] = class, work
	pm.Internal++
}

// only makes pm the single internal move into class with scratch work.
func (pm *PortMasks) only(class QueueClass, work uint32) {
	pm.perPort(0)
	pm.special()
	pm.internal(class, work)
}

// PortMaskRouter is the routing function as port bitmasks.
type PortMaskRouter interface {
	// PortMask writes the candidate set of a packet in queue (node, class)
	// with scratch work, destined to dst, to pm (caller-owned scratch; the
	// result is written through it rather than returned, keeping the
	// per-packet call free of a by-value struct copy) and reports whether
	// the set is plain. The set must be non-empty for any state reachable
	// from an Inject result, and must contain at least one static move (or
	// delivery): the routing-function constraint that guarantees every
	// packet can always progress through the underlying DAG. Ports come in
	// ascending order, so the FirstFree selection policy matches the paper's
	// "fills its output buffers from low to high dimensions".
	PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool
}

// Candidates lists, appended to buf, the moves PortMask encodes for a
// packet in queue (node, class) with scratch work, destined to dst: the
// delivery alone, or the internal moves followed by one remote move per
// port in ascending port order. It is the Move-level view of the routing
// function, which the QDG verifier certifies and diagnostics print; since
// it is derived from PortMask and nothing else, the certificate covers the
// moves the engines run.
func Candidates(a Algorithm, node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	var pm PortMasks
	credit := uint8(0)
	if !a.PortMask(node, class, work, dst, &pm) {
		if pm.Deliver {
			return append(buf, Move{Node: node, Port: PortInternal, Kind: Static, Deliver: true, Work: work})
		}
		for i := 0; i < int(pm.Internal); i++ {
			buf = append(buf, Move{Node: node, Port: PortInternal, Class: pm.IntClass[i], Kind: Static, Work: pm.IntWork[i]})
		}
		credit = pm.Credit
	}
	t := a.Topology()
	for m := pm.StaticUnion() | pm.Dyn; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		mv := Move{Node: int32(t.Neighbor(int(node), p)), Port: int16(p), Class: pm.DynClass, Kind: Dynamic, Work: pm.DynWork}
		if pm.Dyn>>uint(p)&1 == 0 {
			mv.Class, mv.Kind, mv.Work, mv.Credit = pm.StaticClass(p), Static, pm.Work, credit
		}
		buf = append(buf, mv)
	}
	return buf
}

// Derived gives an algorithm its Candidates method, the package function
// Candidates over the algorithm's own PortMask. An algorithm embeds it and
// sets it to Derive(itself) when it is built.
type Derived struct{ a Algorithm }

// Derive returns the Derived of a.
func Derive(a Algorithm) Derived { return Derived{a} }

// Candidates lists the moves of a's PortMask (see the package function).
func (d Derived) Candidates(node int32, class QueueClass, work uint32, dst int32, buf []Move) []Move {
	return Candidates(d.a, node, class, work, dst, buf)
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
