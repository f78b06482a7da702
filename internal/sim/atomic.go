package sim

import (
	"errors"
	"math/bits"

	"repro/internal/core"
	"repro/internal/obs"
)

// AtomicEngine is the abstract store-and-forward model of Section 2: the
// greedy Route(q) procedure applied directly to the central queues, with no
// link buffers. Each cycle every queue may advance its head packet into one
// admissible target queue (checked and applied atomically, so MinFree-based
// bubble conditions are exact by construction), every node may accept one
// injected packet, and deliveries are immediate.
//
// It serves deadlock-freedom studies and quick algorithm comparisons; the
// buffered Engine reproduces the paper's latency tables. After every cycle,
// TestAtomicMatchesReference checks it against a naive Section 2 stepper.
//
// A cycle costs the heads that can move: empty queues are never visited, and
// under first-free without faults a head whose every target queue is full
// is parked until a pop from one of them wakes it (DESIGN.md §3.3).
type AtomicEngine struct {
	kernel

	// What a cycle visits, one bit per queue (DESIGN.md §3.3). occ: may hold
	// a packet; set by qPush, dropped at the next cycle start once the queue
	// has emptied. stuck: parked — the head's moves are all remote and
	// uncredited, and every target queue was full when the sweep last probed
	// them, so only a pop from a full queue of an out-neighbor can release
	// it, and exactly those pops call wake. snap: the cycle's work list, occ
	// &^ stuck plus what wake returns mid-sweep.
	park             bool
	occ, stuck, snap []uint64
	// inNbr[inOff[v]:inOff[v+1]] are v's in-neighbors, the inverse of nbr
	// (not nbr: shuffle links are one-way, and nbr has no self-loops),
	// ascending; inMid[v] splits them into those before v and those after
	// it. Built when the first head parks.
	inOff, inMid, inNbr []int32
	// deferred: the queues this cycle popped from full, waiters before them
	// left parked. Those wake after the next injection drain, and only if
	// the popped queue still has room then. Built with inOff.
	deferred []int32

	// Route(q) scratch, overwritten per queue; touch sinks the loads that
	// warm the next head's record.
	pm    core.PortMasks
	touch int32
}

// NewAtomicEngine builds an atomic engine for the configuration. Workers is
// ignored: atomic semantics are inherently sequential. CutThrough is
// refused: it changes what the buffered node simulates and has no meaning in
// a model without link buffers.
func NewAtomicEngine(cfg Config) (*AtomicEngine, error) {
	if cfg.CutThrough {
		return nil, errors.New("sim: Config.CutThrough does not apply to the atomic engine: the Section 2 model has no link buffers")
	}
	cfg.Workers = 1
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &AtomicEngine{}
	if err := e.kernel.init(cfg, e, 1); err != nil {
		return nil, err
	}
	e.sizeTables(func(int) int { return 0 })
	// Parking needs a blocked head to stay blocked until a target queue pops:
	// first-free, no faults (links revive without a pop). wake takes a node's
	// queues to fit two words of stuck.
	e.park = cfg.Policy == PolicyFirstFree && e.flt == nil && e.classes <= 64
	words := (len(e.qlen) + 63) / 64
	e.occ, e.stuck, e.snap = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	return e, nil
}

// begin hands the kernel the Section 2 sweep over queues that are all empty
// again (snap is rebuilt every cycle).
func (e *AtomicEngine) begin() func(cycle int64) {
	clear(e.occ)
	clear(e.stuck)
	e.deferred = e.deferred[:0]
	return e.sweep
}

// release: the atomic model holds no per-run references of its own.
func (e *AtomicEngine) release() {}

// purgeNode drops everything a dead node holds. Nothing re-enters it:
// routing and misrouting consult livePorts, which excludes dead endpoints.
func (e *AtomicEngine) purgeNode(u int32, cycle int64, st *cycleStats) {
	e.purgeQueues(u, cycle, st)
}

// purgeLink: links carry no state in the atomic model.
func (e *AtomicEngine) purgeLink(int, int64, *cycleStats) {}

// qPush appends packet reference r to queue qi and returns the new length.
func (e *AtomicEngine) qPush(qi int, r int32) int {
	n := e.qlen[qi]
	if int(n) == e.queueCap {
		panic("sim: push into a full queue (admissibility bug)")
	}
	pos := e.qhead[qi] + n
	if pos >= int32(e.queueCap) {
		pos -= int32(e.queueCap)
	}
	e.qref[qi*e.queueCap+int(pos)] = r
	e.qlen[qi] = n + 1
	e.occ[qi>>6] |= 1 << (uint(qi) & 63)
	return int(n + 1)
}

// qPop removes the head of queue qi and returns its reference.
func (e *AtomicEngine) qPop(qi int) int32 {
	k := &e.kernel // one selector: keeps the body within the inlining budget
	head := k.qhead[qi]
	r := k.qref[qi*k.queueCap+int(head)]
	head++
	if head >= int32(k.queueCap) {
		head = 0
	}
	k.qhead[qi] = head
	k.qlen[qi]--
	return r
}

// qHead returns the head reference of the non-empty queue qi.
func (e *AtomicEngine) qHead(qi int) int32 {
	return e.qref[qi*e.queueCap+int(e.qhead[qi])]
}

// qFree returns the free capacity of queue qi.
func (e *AtomicEngine) qFree(qi int) int {
	return e.queueCap - int(e.qlen[qi])
}

// sweep is the atomic model's per-cycle body: injection draws, the
// injection-queue drain, then Route(q) over every queue.
func (e *AtomicEngine) sweep(cycle int64) {
	st, t := &e.statsBuf[0], &e.tabs[0]
	win := e.rs.win
	e.inject(0, 0, e.nodes)
	e.lap(phInject)

	// The cycle's work list: the queues that hold a packet now and are not
	// parked. It is what lets a packet advance at most once per cycle: only
	// Route(qi) pops qi, so a listed queue still has the same head at its
	// turn, and one that fills later this cycle is not listed. Parked queues
	// are non-empty; any other may have emptied since its occ bit was set.
	for wi, w := range e.occ {
		sk := e.stuck[wi]
		for m := w &^ sk; m != 0; m &= m - 1 {
			if e.qlen[wi<<6+bits.TrailingZeros64(m)] == 0 {
				w &^= m & -m
			}
		}
		e.occ[wi], e.snap[wi] = w, w&^sk
		if e.obsOn {
			// A parked head stalls this cycle unseen, unless wake hands it
			// back to the sweep in time (see unpark).
			st.obs.Add(obs.COutputStalls, int64(bits.OnesCount64(sk)))
		}
	}

	// Drain injection queues into central queues (one hop of the model). A
	// shift walk: TrailingZeros64 here serialises the loads (DESIGN.md §3.3).
	for wi, w := range e.injFull {
		for u := int32(wi << 6); w != 0; u, w = u+1, w>>1 {
			if w&1 == 0 {
				continue
			}
			r, c := e.injRef[u], e.injClass[u]
			if c == injByRecord {
				if t.pkts[r].Dst == u {
					e.deliver(t, r, cycle, win, st)
					e.injFull[wi] &^= 1 << (uint(u) & 63)
					continue
				}
				c = t.pkts[r].Class
			}
			qi := e.queueIndex(u, c)
			if e.qFree(qi) >= 1 {
				t.pkts[r].InjectedAt = cycle // latency runs from network entry
				l := e.qPush(qi, r)
				if l > st.maxQueue {
					st.maxQueue = l
				}
				if e.obsOn {
					st.obs.GaugeAdd(obs.GQueueOccupancy, 1)
					st.obs.Observe(obs.HQueueLen, int64(l))
				}
				e.injFull[wi] &^= 1 << (uint(u) & 63)
				st.moves++
			}
		}
	}

	e.recheck()

	e.lap(phB)

	// Route(q) for every listed queue, ascending: the head packet takes the
	// move the policy selects among its admissible candidates, those whose
	// target queue has a free slot (Credit free slots for a credited move;
	// none for an in-place step). wake may add queues ahead of position b
	// while the sweep runs, so the word is read again at every step, not
	// cached.
	f, pm, classes := e.flt, &e.pm, e.classes
	ff := e.cfg.Policy == PolicyFirstFree && f == nil
	for wi := range e.snap {
		for b := uint(0); e.snap[wi]>>b != 0; b++ {
			b += uint(bits.TrailingZeros64(e.snap[wi] >> b))
			qi := wi<<6 + int(b)
			if next := e.snap[wi] >> b >> 1; next != 0 {
				// Load the next listed head's record now: heads are records
				// anywhere in the table, and this way the cache miss overlaps
				// the routing of this one. Only Route(q) pops q, so the next
				// listed queue is not empty.
				e.touch += t.pkts[e.qHead(qi+1+bits.TrailingZeros64(next))].Dst
			}
			u := int32(qi / classes)
			c := qi - int(u)*classes
			r := e.qHead(qi)
			pkt := &t.pkts[r]
			plain := e.algo.PortMask(u, core.QueueClass(c), pkt.Work, pkt.Dst, pm)
			if plain && ff {
				// The tables' case, inline and lean (the general loop below
				// read 10-20% slower on saturated cells): the lowest port
				// whose target queue has room. Locals keep the engine's
				// fields in registers across the probe loop, the hottest
				// lines of the model.
				nbase := int(u) * e.ports
				qlen, nbr, full := e.qlen, e.nbr, int32(e.queueCap)
				p := -1
				for mk := pm.StaticUnion() | pm.Dyn; mk != 0; mk &= mk - 1 {
					port := bits.TrailingZeros64(mk)
					if qlen[int(nbr[nbase+port])*classes+int(portClass(pm, port))] < full {
						p = port
						break
					}
				}
				if p < 0 {
					if e.obsOn {
						st.obs.Inc(obs.COutputStalls)
					}
					if e.park {
						if e.inOff == nil {
							e.invertNbr()
						}
						e.stuck[wi] |= 1 << b
					}
					continue
				}
				tc, dyn := pm.Class(p)
				pkt.Work = pm.Work
				if dyn {
					pkt.Work = pm.DynWork
					st.dynamicMoves++
				}
				e.wake(qi)
				e.qPop(qi)
				pkt.Hops++
				pkt.Class = tc
				l := e.qPush(int(nbr[nbase+p])*classes+int(tc), r)
				if l > st.maxQueue {
					st.maxQueue = l
				}
				if e.obsOn {
					st.obs.Observe(obs.HQueueLen, int64(l))
					st.obs.Inc(obs.CLinkTransfers)
				}
				st.moves++
				continue
			}
			nint, credit := 0, 1
			if !plain {
				if pm.Deliver {
					e.drawDelivery(u)
					e.wake(qi)
					e.qPop(qi)
					if e.obsOn {
						st.obs.GaugeAdd(obs.GQueueOccupancy, -1)
					}
					e.deliver(t, r, cycle, win, st)
					continue
				}
				nint, credit = int(pm.Internal), max(credit, int(pm.Credit))
			}
			union := pm.StaticUnion() | pm.Dyn
			pol := e.cfg.Policy
			hashed := false
			if f != nil {
				union &= f.livePorts[u]
				if union == 0 && nint == 0 {
					// Faults removed every candidate: misroute or drop.
					e.misroute(u, qi, cycle, st)
					continue
				}
				// Positional policies would deterministically walk a fault-displaced
				// packet back into the dead minimal cut; hash the pick instead (see
				// Engine.misroute).
				hashed = (pol == PolicyFirstFree || pol == PolicyLastFree) && pkt.Misrouted() && nint+bits.OnesCount64(union) > 1
			}
			// First-free takes the first admissible candidate it meets (in, or p
			// into tc); the other policies collect them all and choose below.
			first := pol == PolicyFirstFree && !hashed
			qi0 := int(u) * classes
			in, p := -1, -1
			tc, dyn := core.QueueClass(0), false
			var ai uint8
			var ap uint64
			for i := 0; i < nint; i++ {
				if tc := int(pm.IntClass[i]); tc == c || e.qFree(qi0+tc) >= 1 {
					ai |= 1 << uint(i)
					if first {
						in = i
						break
					}
				}
			}
			if in < 0 {
				qlen, nbr, nbase := e.qlen, e.nbr, int(u)*e.ports
				for mk := union; mk != 0; mk &= mk - 1 {
					port := bits.TrailingZeros64(mk)
					tc, dyn = pm.Class(port)
					need := int32(1)
					if !dyn {
						need = int32(credit)
					}
					if qlen[int(nbr[nbase+port])*classes+int(tc)] <= int32(e.queueCap)-need {
						ap |= 1 << uint(port)
						if first {
							p = port
							break
						}
					}
				}
			}
			if ai == 0 && ap == 0 {
				// Not parked: only the inline scan above parks, and it took
				// every plain set an engine that parks meets.
				if e.obsOn {
					st.obs.Inc(obs.COutputStalls)
				}
				continue
			}
			if !first {
				if hashed {
					in, p = nth(ai, ap, int(misrouteHash(cycle, pkt.ID, pkt.HopCount())%uint32(bits.OnesCount8(ai)+bits.OnesCount64(ap))))
				} else {
					in, p = choose(pol, &e.rngs[u], ai, ap, pm.Dyn)
				}
				if in < 0 {
					tc, dyn = pm.Class(p)
				}
			}
			qi2 := 0
			if in >= 0 {
				tc = pm.IntClass[in]
				pkt.Work = pm.IntWork[in]
				if int(tc) == c {
					st.moves++ // in-place step: the bookkeeping advances, the packet stays
					continue
				}
				qi2 = qi0 + int(tc)
			} else {
				pkt.Work = pm.Work
				if dyn {
					pkt.Work = pm.DynWork
					st.dynamicMoves++
				}
				pkt.Hops++
				qi2 = int(e.nbr[int(u)*e.ports+p])*classes + int(tc)
			}
			e.wake(qi)
			e.qPop(qi)
			pkt.Class = tc
			l := e.qPush(qi2, r)
			if l > st.maxQueue {
				st.maxQueue = l
			}
			if e.obsOn {
				// Pop and push cancel in the occupancy gauge.
				st.obs.Observe(obs.HQueueLen, int64(l))
				if in < 0 {
					st.obs.Inc(obs.CLinkTransfers)
				}
			}
			st.moves++
		}
	}
	e.lap(phA)
}

// portClass is pm.Class(port) without StaticClass's search: the mask
// groups are disjoint, so at most one of Static[1..3] has bit port set.
func portClass(pm *core.PortMasks, port int) core.QueueClass {
	switch {
	case pm.Dyn>>uint(port)&1 != 0:
		return pm.DynClass
	case pm.PerPort:
		return pm.PortClass[port]
	}
	p := uint(port)
	return core.QueueClass(pm.Static[1]>>p&1 | (pm.Static[2]>>p&1)<<1 | (pm.Static[3]>>p&1)*3)
}

// wake precedes every pop of the sweep, from queue pos at its turn: a pop
// that takes a queue from full to one slot free is what releases parked heads.
func (e *AtomicEngine) wake(pos int) {
	if int(e.qlen[pos]) == e.queueCap && e.inOff != nil {
		e.wakeIn(pos)
	}
}

// wakeIn releases the heads that may be parked on a queue of v, the node
// that owns queue pos: the queues of its in-neighbors (a parked head does
// not record which targets it probed). Queue u*classes+c comes before pos
// exactly when u < v, and v's in-neighbor list is ascending. The sweep is at
// pos: the in-neighbors after v run this cycle, as the full sweep would run
// them. Those before v were blocked at their turn, and the next cycle's
// injection drain, which runs before their next turn, mostly refills pos;
// so pos goes on deferred, and recheck wakes them after that drain if pos
// has room.
func (e *AtomicEngine) wakeIn(pos int) {
	v := pos / e.classes
	e.unparkNodes(e.inNbr[e.inMid[v]:e.inOff[v+1]])
	if e.inMid[v] > e.inOff[v] {
		e.deferred = append(e.deferred, int32(pos))
	}
}

// recheck runs after the injection drain, before the sweep: for each queue
// the last cycle popped from full with in-neighbors before it, it wakes those
// in-neighbors' heads if the queue still has room. A waiter whose slot is
// full again would only block at its turn: only Route(q) pops q, and the
// sweep reaches the waiter first.
func (e *AtomicEngine) recheck() {
	for _, pos := range e.deferred {
		if e.qlen[pos] == int32(e.queueCap) {
			continue
		}
		v := int(pos) / e.classes
		e.unparkNodes(e.inNbr[e.inOff[v]:e.inMid[v]])
	}
	e.deferred = e.deferred[:0]
}

// unparkNodes returns every parked queue of the nodes us to the sweep, ahead
// of its position.
func (e *AtomicEngine) unparkNodes(us []int32) {
	cl := uint(e.classes)
	all := ^uint64(0) >> (64 - cl)
	for _, u := range us {
		lo := uint(u) * cl
		wi, sh := int(lo>>6), lo&63
		e.unpark(wi, all<<sh)
		if sh+cl > 64 {
			e.unpark(wi+1, all>>(64-sh))
		}
	}
}

// unpark returns the parked queues of stuck[wi]&m to the sweep. The snapshot
// charged each a stall; they count their own if they block again, so the
// charge is taken back. It stores whether or not s is empty: which it is
// cannot be predicted, and a mispredicted test costs more than the stores.
func (e *AtomicEngine) unpark(wi int, m uint64) {
	s := e.stuck[wi] & m
	e.stuck[wi] &^= s
	e.snap[wi] |= s
	if e.obsOn {
		e.statsBuf[0].obs.Add(obs.COutputStalls, -int64(bits.OnesCount64(s)))
	}
}

// invertNbr builds the in-neighbor lists wake walks, and the deferred list.
// off[v+1] counts up from the start of v's list to the start of the next, so
// off ends as the offsets; links are read in node order, so each list is
// ascending.
func (e *AtomicEngine) invertNbr() {
	off := make([]int32, e.nodes+2)
	for _, v := range e.nbr {
		if v >= 0 {
			off[v+2]++
		}
	}
	for v := 0; v < e.nodes; v++ {
		off[v+2] += off[v+1]
	}
	in := make([]int32, off[e.nodes+1])
	for l, v := range e.nbr {
		if v >= 0 {
			in[off[v+1]] = int32(l / e.ports)
			off[v+1]++
		}
	}
	mid := make([]int32, e.nodes)
	for v := range mid {
		i := off[v]
		for i < off[v+1] && int(in[i]) < v {
			i++
		}
		mid[v] = i
	}
	e.inOff, e.inMid, e.inNbr = off, mid, in
	// Only Route(q) pops q, once a cycle: one entry per queue bounds the list.
	e.deferred = make([]int32, 0, len(e.qlen))
}

// misroute is the atomic model's degraded-routing fallback: the head
// packet of queue qi, whose every minimal candidate died, moves into any
// surviving neighbor's queue (re-entering it as a fresh injection with the
// misroute flag set) or is dropped once its hop budget runs out.
func (e *AtomicEngine) misroute(u int32, qi int, cycle int64, st *cycleStats) {
	t := &e.tabs[0]
	r := e.qHead(qi)
	pkt := &t.pkts[r]
	order, ok := e.flt.detour(u, pkt, e.algo.MaxHops(pkt.Src, pkt.Dst), cycle)
	if !ok {
		e.qPop(qi)
		if e.obsOn {
			st.obs.GaugeAdd(obs.GQueueOccupancy, -1)
		}
		e.dropRef(t, r, cycle, st)
		return
	}
	for _, mk := range order {
		for ; mk != 0; mk &= mk - 1 {
			p := bits.TrailingZeros64(mk)
			v := int32(e.topo.Neighbor(int(u), p))
			class, work := e.algo.Inject(v, pkt.Dst)
			qi2 := e.queueIndex(v, class)
			if e.qFree(qi2) < 1 {
				continue
			}
			e.qPop(qi)
			pkt.Hops++
			pkt.MarkMisrouted()
			pkt.Class = class
			pkt.Work = work
			l := e.qPush(qi2, r)
			if l > st.maxQueue {
				st.maxQueue = l
			}
			if e.obsOn {
				st.obs.Observe(obs.HQueueLen, int64(l))
				st.obs.Inc(obs.CLinkTransfers)
				st.obs.Inc(obs.CMisrouted)
			}
			st.moves++
			return
		}
	}
	if e.obsOn {
		st.obs.Inc(obs.COutputStalls)
	}
}
