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
// It is the reference semantics for deadlock-freedom studies and for quick
// algorithm comparisons; the buffered Engine is the one that reproduces the
// paper's latency tables.
//
// A cycle costs the heads that can move: empty queues are never visited, and
// under first-free without faults a head whose every target queue is full
// is parked until a pop from one of them wakes it (DESIGN.md §3.3).
type AtomicEngine struct {
	kernel

	// maskFF selects the port-mask fast path (see nodePhaseA in engine.go for
	// the buffered counterpart): with a PortMaskRouter algorithm and the
	// FirstFree policy, mask-eligible head packets route through an inline
	// bitmask scan over the neighbor table instead of materializing Moves.
	maskFF bool

	// What a cycle visits, one bit per queue (DESIGN.md §3.3). occ: may hold
	// a packet; set by qPush, dropped at the next cycle start once the queue
	// has emptied. stuck: parked — every target queue of the head was full
	// when the mask path last probed them, so only a pop from a full queue of
	// an out-neighbor can release it, and exactly those pops call wake. snap:
	// the cycle's work list, occ &^ stuck plus what wake returns mid-sweep.
	park             bool
	occ, stuck, snap []uint64
	// inNbr[inOff[v]:inOff[v+1]] are v's in-neighbors, the inverse of nbr
	// (not nbr: shuffle links are one-way). Built when the first head parks.
	inOff, inNbr []int32

	// Route(q) scratch, overwritten per queue; touch sinks the loads that
	// warm the next head's record.
	cand  [64]core.Move
	adm   [64]int
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
	e.maskFF = e.pmr != nil && cfg.Policy == PolicyFirstFree
	// Parking needs "admissible" to mean "some target queue is not full" and
	// no more: the mask path, no faults. wake takes a node's queues to fit two
	// words of stuck.
	e.park = e.maskFF && e.flt == nil && e.classes <= 64
	words := (len(e.qlen) + 63) / 64
	e.occ, e.stuck, e.snap = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	return e, nil
}

// begin hands the kernel the Section 2 sweep over queues that are all empty
// again (snap is rebuilt every cycle).
func (e *AtomicEngine) begin() func(cycle int64) {
	clear(e.occ)
	clear(e.stuck)
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
	f := e.flt
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

	e.lap(phB)

	// Route(q) for every listed queue, ascending: advance the head packet if
	// possible. wake may add queues ahead of position b while the sweep runs,
	// so the word is read again at every step, not cached.
	classes := e.classes
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
			if e.maskFF && pkt.Dst != u {
				// Port-mask fast path: identical move-by-move to running the
				// FirstFree selection over Candidates (including the hashed
				// pick for fault-displaced packets), but the moves are
				// implied by the mask bits and never built. States PortMask
				// declines fall through to the Candidates scan below.
				pm := &e.pm
				if e.pmr.PortMask(u, core.QueueClass(c), pkt.Work, pkt.Dst, pm) {
					union := pm.StaticUnion() | pm.Dyn
					if f != nil {
						lp := f.livePorts[u]
						pm.Static[0] &= lp
						pm.Static[1] &= lp
						pm.Static[2] &= lp
						pm.Static[3] &= lp
						pm.StaticMask &= lp
						pm.Dyn &= lp
						union = pm.StaticUnion() | pm.Dyn
						if union == 0 {
							e.misroute(u, qi, cycle, st)
							continue
						}
					}
					// First-free takes the lowest admissible port, so the probe
					// stops at the first hit; only the hashed pick of a
					// fault-displaced packet needs the whole admissible set.
					hashed := f != nil && pkt.Misrouted()
					adm := uint32(0)
					nbase := int(u) * e.ports
					// Locals keep the engine's fields in registers across the
					// probe loop, the hottest lines of the model.
					qlen, nbr, full := e.qlen, e.nbr, int32(e.queueCap)
					for mk := union; mk != 0; mk &= mk - 1 {
						p := bits.TrailingZeros32(mk)
						tc := int(pm.DynClass)
						if pm.Dyn>>uint(p)&1 == 0 {
							tc = int(pm.StaticClass(p))
						}
						if qlen[int(nbr[nbase+p])*classes+tc] < full {
							adm |= 1 << uint(p)
							if !hashed {
								break
							}
						}
					}
					if adm == 0 {
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
					sel := bits.TrailingZeros32(adm)
					if hashed && adm&(adm-1) != 0 {
						k := int(misrouteHash(cycle, pkt.ID, pkt.HopCount()) % uint32(bits.OnesCount32(adm)))
						mk := adm
						for i := 0; i < k; i++ {
							mk &= mk - 1
						}
						sel = bits.TrailingZeros32(mk)
					}
					dyn := pm.Dyn>>uint(sel)&1 != 0
					tc := int(pm.DynClass)
					if !dyn {
						tc = int(pm.StaticClass(sel))
					}
					e.wake(qi)
					e.qPop(qi)
					pkt.Hops++
					pkt.Class = core.QueueClass(tc)
					if dyn {
						pkt.Work = pm.DynWork
					} else {
						pkt.Work = pm.Work
					}
					l := e.qPush(int(e.nbr[nbase+sel])*e.classes+tc, r)
					if l > st.maxQueue {
						st.maxQueue = l
					}
					if e.obsOn {
						st.obs.Observe(obs.HQueueLen, int64(l))
						st.obs.Inc(obs.CLinkTransfers)
					}
					st.moves++
					if dyn {
						st.dynamicMoves++
					}
					continue
				}
			}
			moves := e.algo.Candidates(u, core.QueueClass(c), pkt.Work, pkt.Dst, e.cand[:0])
			if f != nil {
				moves = f.filterLiveMoves(u, moves)
				if len(moves) == 0 {
					// Faults removed every candidate: misroute or drop.
					e.misroute(u, qi, cycle, st)
					continue
				}
			}
			nAdm := 0
			for i := range moves {
				if e.admissible(u, core.QueueClass(c), moves[i]) {
					e.adm[nAdm] = i
					nAdm++
				}
			}
			if nAdm == 0 {
				if e.obsOn {
					st.obs.Inc(obs.COutputStalls)
				}
				continue
			}
			var mv core.Move
			if f != nil && nAdm > 1 && pkt.Misrouted() &&
				(e.cfg.Policy == PolicyFirstFree || e.cfg.Policy == PolicyLastFree) {
				// Positional policies would deterministically walk a
				// fault-displaced packet back into the dead minimal cut;
				// hash the pick instead (see Engine.misroute).
				mv = moves[e.adm[int(misrouteHash(cycle, pkt.ID, pkt.HopCount())%uint32(nAdm))]]
			} else {
				mv = moves[choose(e.cfg.Policy, &e.rngs[u], moves, e.adm[:nAdm])]
			}
			switch {
			case mv.Deliver:
				e.wake(qi)
				e.qPop(qi)
				if e.obsOn {
					st.obs.GaugeAdd(obs.GQueueOccupancy, -1)
				}
				e.deliver(t, r, cycle, win, st)
			case mv.Node == u && mv.Class == core.QueueClass(c) && mv.Port == core.PortInternal:
				pkt.Work = mv.Work
				st.moves++
			default:
				e.wake(qi)
				e.qPop(qi)
				if mv.Port != core.PortInternal {
					pkt.Hops++
				}
				pkt.Class = mv.Class
				pkt.Work = mv.Work
				qi2 := e.queueIndex(mv.Node, mv.Class)
				l := e.qPush(qi2, r)
				if l > st.maxQueue {
					st.maxQueue = l
				}
				if e.obsOn {
					// Pop and push cancel in the occupancy gauge.
					st.obs.Observe(obs.HQueueLen, int64(l))
					if mv.Port != core.PortInternal {
						st.obs.Inc(obs.CLinkTransfers)
					}
				}
				st.moves++
				if mv.Kind == core.Dynamic {
					st.dynamicMoves++
				}
			}
		}
	}
	e.lap(phA)
}

// wake precedes every pop of the sweep, from queue pos at its turn: a pop
// that takes a queue from full to one slot free is what releases parked heads.
func (e *AtomicEngine) wake(pos int) {
	if int(e.qlen[pos]) == e.queueCap && e.inOff != nil {
		e.wakeIn(pos)
	}
}

// wakeIn releases the heads that may be parked on a queue of the node that
// owns queue pos: every queue of every in-neighbor (a parked head does not
// record which targets it probed).
func (e *AtomicEngine) wakeIn(pos int) {
	v, cl := pos/e.classes, uint(e.classes)
	all := ^uint64(0) >> (64 - cl)
	for _, u := range e.inNbr[e.inOff[v]:e.inOff[v+1]] {
		lo := uint(u) * cl
		wi, sh := int(lo>>6), lo&63
		e.unpark(wi, all<<sh, pos)
		if sh+cl > 64 {
			e.unpark(wi+1, all>>(64-sh), pos)
		}
	}
}

// unpark returns the parked queues of stuck[wi]&m to the sweep, which is at
// queue pos. Those ahead of pos get their Route(q) this very cycle, as the
// full sweep would give them; those behind were blocked at their turn (their
// targets stayed full until this pop) and run again next cycle.
func (e *AtomicEngine) unpark(wi int, m uint64, pos int) {
	s := e.stuck[wi] & m
	if s == 0 {
		return
	}
	e.stuck[wi] &^= s
	e.snap[wi] |= s
	if e.obsOn && wi >= pos>>6 {
		// The heads ahead count their own stall if they block again; take
		// back the one the snapshot charged them.
		if wi == pos>>6 {
			s &= ^uint64(0) << (uint(pos) & 63)
		}
		e.statsBuf[0].obs.Add(obs.COutputStalls, -int64(bits.OnesCount64(s)))
	}
}

// invertNbr builds the in-neighbor lists wake walks. off[v+1] counts up from
// the start of v's list to the start of the next, so off ends as the offsets.
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
	e.inOff, e.inNbr = off, in
}

// misroute is the atomic model's degraded-routing fallback: the head
// packet of queue qi, whose every minimal candidate died, moves into any
// surviving neighbor's queue (re-entering it as a fresh injection with the
// misroute flag set) or is dropped once its hop budget runs out.
func (e *AtomicEngine) misroute(u int32, qi int, cycle int64, st *cycleStats) {
	f, t := e.flt, &e.tabs[0]
	r := e.qHead(qi)
	pkt := &t.pkts[r]
	lp := f.livePorts[u]
	if lp == 0 || pkt.HopCount() >= e.algo.MaxHops(pkt.Src, pkt.Dst)+f.hopBudget {
		e.qPop(qi)
		if e.obsOn {
			st.obs.GaugeAdd(obs.GQueueOccupancy, -1)
		}
		e.dropRef(t, r, cycle, st)
		return
	}
	// Hashed start port, not a (cycle+hops) rotation: see Engine.misroute
	// for why the rotation can orbit a packet forever.
	n := bits.OnesCount32(lp)
	k := int(misrouteHash(cycle, pkt.ID, pkt.HopCount()) % uint32(n))
	upper := lp
	for i := 0; i < k; i++ {
		upper &= upper - 1
	}
	for _, mk := range [2]uint32{upper, lp ^ upper} {
		for ; mk != 0; mk &= mk - 1 {
			p := bits.TrailingZeros32(mk)
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

// admissible implements the atomic model's check: a move may be taken iff
// the target queue has MinFree free slots right now (deliveries and
// in-place moves are always admissible).
func (e *AtomicEngine) admissible(u int32, class core.QueueClass, mv core.Move) bool {
	switch {
	case mv.Deliver:
		return true
	case mv.Node == u && mv.Class == class && mv.Port == core.PortInternal:
		return true
	default:
		required := int(mv.MinFree)
		// In the atomic model nothing is ever in flight, so a credited
		// move's condition reduces to requiring Credit free slots.
		if int(mv.Credit) > required {
			required = int(mv.Credit)
		}
		return e.qFree(e.queueIndex(mv.Node, mv.Class)) >= required
	}
}
