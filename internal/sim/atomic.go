package sim

import (
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
type AtomicEngine struct {
	kernel

	// maskFF selects the port-mask fast path (see nodePhaseA in engine.go for
	// the buffered counterpart): with a PortMaskRouter algorithm and the
	// FirstFree policy, mask-eligible head packets route through an inline
	// bitmask scan over the neighbor table instead of materializing Moves.
	maskFF bool
	headID []int64 // per-queue head snapshot: one move per packet per cycle

	// Route(q) scratch, overwritten per queue.
	cand [64]core.Move
	adm  [64]int
	pm   core.PortMasks
}

// NewAtomicEngine builds an atomic engine for the configuration. Workers is
// ignored: atomic semantics are inherently sequential.
func NewAtomicEngine(cfg Config) (*AtomicEngine, error) {
	cfg.Workers = 1
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &AtomicEngine{}
	if err := e.kernel.init(cfg, e, 1); err != nil {
		return nil, err
	}
	e.headID = make([]int64, len(e.qlen))
	e.maskFF = e.pmr != nil && e.ports <= 32 && cfg.Policy == PolicyFirstFree
	return e, nil
}

// begin hands the kernel the Section 2 sweep; the head snapshot is rebuilt
// every cycle, so the model has no state of its own to clear.
func (e *AtomicEngine) begin() func(cycle int64) { return e.sweep }

// release: the atomic model holds no per-run references of its own.
func (e *AtomicEngine) release() {}

// purgeNode drops everything a dead node holds. Nothing re-enters it:
// routing and misrouting consult livePorts, which excludes dead endpoints.
func (e *AtomicEngine) purgeNode(u int32, cycle int64, st *cycleStats) {
	e.purgeQueues(u, cycle, st)
}

// purgeLink: links carry no state in the atomic model.
func (e *AtomicEngine) purgeLink(int, int64, *cycleStats) {}

// qPush appends the packet to queue qi and returns the new length.
func (e *AtomicEngine) qPush(qi int, pkt *core.Packet) int {
	n := e.qlen[qi]
	if int(n) == e.queueCap {
		panic("sim: push into a full queue (admissibility bug)")
	}
	pos := e.qhead[qi] + n
	if pos >= int32(e.queueCap) {
		pos -= int32(e.queueCap)
	}
	e.qbuf[qi*e.queueCap+int(pos)] = *pkt
	e.qlen[qi] = n + 1
	return int(n + 1)
}

// qPop removes and returns the head packet of queue qi.
func (e *AtomicEngine) qPop(qi int) core.Packet {
	k := &e.kernel // one selector: keeps the body within the inlining budget
	head := k.qhead[qi]
	pkt := k.qbuf[qi*k.queueCap+int(head)]
	head++
	if head >= int32(k.queueCap) {
		head = 0
	}
	k.qhead[qi] = head
	k.qlen[qi]--
	return pkt
}

// qFree returns the free capacity of queue qi.
func (e *AtomicEngine) qFree(qi int) int {
	return e.queueCap - int(e.qlen[qi])
}

// sweep is the atomic model's per-cycle body: injection draws, the
// injection-queue drain, then Route(q) over every queue.
func (e *AtomicEngine) sweep(cycle int64) {
	st := &e.statsBuf[0]
	win := e.rs.win
	f := e.flt
	e.inject(0, 0, e.nodes)
	e.lap(phInject)

	// Snapshot the head of every queue: a packet may advance at most
	// once per cycle, even if it lands in a queue processed later.
	for qi := range e.qlen {
		if e.qlen[qi] == 0 {
			e.headID[qi] = 0
		} else {
			e.headID[qi] = e.qAt(qi, 0).ID
		}
	}

	// Drain injection queues into central queues (one hop of the model).
	for u := int32(0); int(u) < e.nodes; u++ {
		sl := &e.injQ[u]
		if !sl.full {
			continue
		}
		if sl.pkt.Dst == u {
			e.deliver(sl.pkt, cycle, win, st)
			sl.full = false
			e.injFull[u>>6] &^= 1 << (uint(u) & 63)
			continue
		}
		qi := e.queueIndex(u, sl.pkt.Class)
		if e.qFree(qi) >= 1 {
			sl.pkt.InjectedAt = cycle // latency runs from network entry
			l := e.qPush(qi, &sl.pkt)
			if l > st.maxQueue {
				st.maxQueue = l
			}
			if e.obsOn {
				st.obs.GaugeAdd(obs.GQueueOccupancy, 1)
				st.obs.Observe(obs.HQueueLen, int64(l))
			}
			sl.full = false
			e.injFull[u>>6] &^= 1 << (uint(u) & 63)
			st.moves++
		}
	}

	e.lap(phB)

	// Route(q) for every queue: advance the head packet if possible.
	for u := int32(0); int(u) < e.nodes; u++ {
		r := &e.rngs[u]
		for c := 0; c < e.classes; c++ {
			qi := int(u)*e.classes + c
			if e.qlen[qi] == 0 || e.qAt(qi, 0).ID != e.headID[qi] {
				continue
			}
			pkt := *e.qAt(qi, 0)
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
					// The atomic model's admissibility depends on the target
					// queue, so (unlike the buffered probe-and-stop scan) the
					// full admissible port set is computed — which the slow
					// path does anyway, and the hashed misroute pick needs.
					adm := uint32(0)
					nbase := int(u) * e.ports
					// Locals keep the engine's fields in registers across the
					// probe loop, the hottest lines of the model.
					qlen, nbr, classes, full := e.qlen, e.nbr, e.classes, int32(e.queueCap)
					for mk := union; mk != 0; mk &= mk - 1 {
						p := bits.TrailingZeros32(mk)
						bit := uint32(1) << uint(p)
						tc := 0
						switch {
						case pm.Dyn&bit != 0:
							tc = int(pm.DynClass)
						case pm.PerPort:
							tc = int(pm.PortClass[p])
						default:
							for pm.Static[tc]&bit == 0 {
								tc++
							}
						}
						if qlen[int(nbr[nbase+p])*classes+tc] < full {
							adm |= bit
						}
					}
					if adm == 0 {
						if e.obsOn {
							st.obs.Inc(obs.COutputStalls)
						}
						continue
					}
					sel := bits.TrailingZeros32(adm)
					if f != nil && adm&(adm-1) != 0 && pkt.Misrouted() {
						k := int(misrouteHash(cycle, pkt.ID, pkt.HopCount()) % uint32(bits.OnesCount32(adm)))
						mk := adm
						for i := 0; i < k; i++ {
							mk &= mk - 1
						}
						sel = bits.TrailingZeros32(mk)
					}
					bit := uint32(1) << uint(sel)
					dyn := pm.Dyn&bit != 0
					tc := 0
					switch {
					case dyn:
						tc = int(pm.DynClass)
					case pm.PerPort:
						tc = int(pm.PortClass[sel])
					default:
						for pm.Static[tc]&bit == 0 {
							tc++
						}
					}
					pkt = e.qPop(qi)
					pkt.Hops++
					pkt.Class = core.QueueClass(tc)
					if dyn {
						pkt.Work = pm.DynWork
					} else {
						pkt.Work = pm.Work
					}
					l := e.qPush(int(e.nbr[nbase+sel])*e.classes+tc, &pkt)
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
				mv = moves[choose(e.cfg.Policy, r, moves, e.adm[:nAdm])]
			}
			switch {
			case mv.Deliver:
				pkt = e.qPop(qi)
				if e.obsOn {
					st.obs.GaugeAdd(obs.GQueueOccupancy, -1)
				}
				e.deliver(pkt, cycle, win, st)
			case mv.Node == u && mv.Class == core.QueueClass(c) && mv.Port == core.PortInternal:
				pkt.Work = mv.Work
				*e.qAt(qi, 0) = pkt
				st.moves++
			default:
				pkt = e.qPop(qi)
				if mv.Port != core.PortInternal {
					pkt.Hops++
				}
				pkt.Class = mv.Class
				pkt.Work = mv.Work
				qi2 := e.queueIndex(mv.Node, mv.Class)
				l := e.qPush(qi2, &pkt)
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

// misroute is the atomic model's degraded-routing fallback: the head
// packet of queue qi, whose every minimal candidate died, moves into any
// surviving neighbor's queue (re-entering it as a fresh injection with the
// misroute flag set) or is dropped once its hop budget runs out.
func (e *AtomicEngine) misroute(u int32, qi int, cycle int64, st *cycleStats) {
	f := e.flt
	pkt := *e.qAt(qi, 0)
	lp := f.livePorts[u]
	if lp == 0 || pkt.HopCount() >= e.algo.MaxHops(pkt.Src, pkt.Dst)+f.hopBudget {
		dropped := e.qPop(qi)
		if e.obsOn {
			st.obs.GaugeAdd(obs.GQueueOccupancy, -1)
		}
		e.faultDrop(&dropped, cycle, st)
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
			pkt = e.qPop(qi)
			pkt.Hops++
			pkt.MarkMisrouted()
			pkt.Class = class
			pkt.Work = work
			l := e.qPush(qi2, &pkt)
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
