package sim

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/topology"
)

// faultState is the kernel's fault machinery, shared by both engines. It
// is nil when the configuration schedules no faults, so the no-fault hot
// path pays a single pointer test per guarded site.
//
// Determinism: the schedule is compiled before the run (probabilistic
// selections resolved there), events are applied sequentially at cycle
// boundaries, and every routing-time decision (candidate filtering,
// misroute port choice, injection backoff) depends only on node-local state
// — so fault-enabled runs stay bit-deterministic across worker counts.
type faultState struct {
	sched     *fault.Schedule
	nextEv    int
	live      *topology.Liveness
	livePorts []uint64  // per node: usable out-port mask (link + both endpoints alive)
	inEdges   [][]int32 // per node: directed-link ids (u*ports+p) entering it
	hopBudget int       // extra traversals beyond MaxHops before a misrouted packet drops
	injFail   []uint8   // per node: consecutive failed injection attempts (backoff exponent)
	injNext   []int64   // per node: next cycle at which injection may be attempted
}

// maxBackoffShift caps the injection backoff at 2^6 = 64 cycles.
const maxBackoffShift = 6

// defaultHopBudget is the misroute budget when neither Config.HopBudget nor
// the plan sets one.
const defaultHopBudget = 64

func newFaultState(t topology.Topology, sched *fault.Schedule, hopBudget int) *faultState {
	n, ports := t.Nodes(), t.Ports()
	f := &faultState{
		sched:     sched,
		live:      topology.NewLiveness(t),
		livePorts: make([]uint64, n),
		inEdges:   make([][]int32, n),
		hopBudget: hopBudget,
		injFail:   make([]uint8, n),
		injNext:   make([]int64, n),
	}
	if f.hopBudget <= 0 {
		f.hopBudget = sched.HopBudget
	}
	if f.hopBudget <= 0 {
		f.hopBudget = defaultHopBudget
	}
	for u := 0; u < n; u++ {
		for p := 0; p < ports; p++ {
			if v := t.Neighbor(u, p); v != topology.None && v != u {
				f.inEdges[v] = append(f.inEdges[v], int32(u*ports+p))
			}
		}
	}
	f.reset()
	return f
}

func (f *faultState) reset() {
	f.nextEv = 0
	f.live.Reset()
	f.recomputeLivePorts()
	for u := range f.injFail {
		f.injFail[u] = 0
		f.injNext[u] = 0
	}
}

func (f *faultState) recomputeLivePorts() {
	for u := range f.livePorts {
		f.livePorts[u] = f.live.LivePorts(u)
	}
}

// backoff handles a saturated injection attempt: the node waits an
// exponentially growing number of cycles before the next attempt.
func (f *faultState) backoff(u int32, cycle int64) {
	if f.injFail[u] < maxBackoffShift {
		f.injFail[u]++
	}
	f.injNext[u] = cycle + 1<<f.injFail[u]
}

// purgeLink drops the packets waiting in the output buffers of the directed
// link l: they were committed to a link that no longer exists. Input
// buffers at the far end keep their packets — those already crossed.
func (e *Engine) purgeLink(l int, cycle int64, st *cycleStats) {
	u := int32(l / e.ports)
	t := &e.tabs[e.owner[u]]
	base := l * e.bufClasses
	for bc := 0; bc < e.bufClasses; bc++ {
		if e.outFull[base+bc] == 0 {
			continue
		}
		r := e.outRef[base+bc]
		if pkt := &t.pkts[r]; pkt.MinFree == 0 {
			// Credited packet: release its reservation at the target queue.
			e.inbound[e.queueIndex(e.nbr[l], pkt.Class)]--
		}
		e.dropRef(t, r, cycle, st)
		e.outFull[base+bc] = 0
		e.outLink[l]--
		e.outCount[u]--
	}
}

// purgeNode drops every packet held at a dead node — central queues,
// injection queue, input buffers — plus the packets committed toward it in
// its in-edge output buffers. After the purge nothing can re-enter the node
// (phase (a), cut-through and misrouting all consult livePorts), so the
// node stays empty until revived.
func (e *Engine) purgeNode(u int32, cycle int64, st *cycleStats) {
	for _, l := range e.flt.inEdges[u] {
		e.purgeLink(int(l), cycle, st)
	}
	e.purgeQueues(u, cycle, st)
	clear(e.inbound[int(u)*e.classes : (int(u)+1)*e.classes])
	e.qTotal[u] = 0
	base, deg := e.inBase[u], e.inDeg[u]
	t := &e.tabs[e.owner[u]]
	for si := base; si < base+deg; si++ {
		if e.inFull[si] == 0 {
			continue
		}
		// inCount is decremented per buffer (inFree), never reset.
		e.dropRef(t, e.inRef[si], cycle, st)
		e.inFree(u, si)
	}
	lbase := int(u) * e.ports
	for p := 0; p < e.ports; p++ {
		if e.nbr[lbase+p] >= 0 {
			e.purgeLink(lbase+p, cycle, st)
		}
	}
}

// misrouteHash mixes the cycle, packet identity and hop count into the
// starting-port draw for a misroute (splitmix64 finalizer).
func misrouteHash(cycle, id int64, hops int) uint32 {
	x := uint64(cycle)*0x9E3779B97F4A7C15 ^ uint64(id)<<32 ^ uint64(hops)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x)
}

// detour returns the ports a fault-trapped packet at u may leave through,
// in the order to try them, or ok == false once its hop budget is spent (or
// no port survives) and it is to be dropped. The order starts at a port
// hashed from the cycle, the packet and its progress — deterministic and
// node-local, so worker counts cannot change it — and wraps. A plain
// (cycle+hops) rotation is not enough: on a closed detour of length L both
// advance by L per lap, so the same port would be chosen forever whenever
// 2L divides the live-port count, and the packet would orbit until its hop
// budget ran out.
func (f *faultState) detour(u int32, pkt *core.Packet, maxHops int, cycle int64) (order [2]uint64, ok bool) {
	lp := f.livePorts[u]
	if lp == 0 || pkt.HopCount() >= maxHops+f.hopBudget {
		return order, false
	}
	lower, upper := splitAt(lp, int(misrouteHash(cycle, pkt.ID, pkt.HopCount())%uint32(bits.OnesCount64(lp))))
	return [2]uint64{upper, lower}, true
}

// misroute is the degraded-routing fallback: every minimal candidate of the
// packet at FIFO position idx of queue qi (a record of t, u's shard table)
// was removed by faults. The packet is re-routed through any surviving
// link's shared dynamic buffer — it re-enters the neighbor as a fresh
// injection (class and scratch from Inject) with the misroute flag set — or
// dropped once its hop budget is exhausted. Reports whether the packet left
// the queue.
func (e *Engine) misroute(u int32, qi int, idx int32, t *pktTable, cycle int64, st *cycleStats) bool {
	r := e.qref[e.qSlot(qi, idx)]
	pkt := &t.pkts[r]
	order, ok := e.flt.detour(u, pkt, e.algo.MaxHops(pkt.Src, pkt.Dst), cycle)
	if !ok {
		e.dropRef(t, r, cycle, st)
		e.qDrop(u, qi, idx)
		return true
	}
	lbase := int(u) * e.ports
	for _, mk := range order {
		for ; mk != 0; mk &= mk - 1 {
			p := bits.TrailingZeros64(mk)
			si := (lbase+p)*e.bufClasses + e.classes // shared dynamic buffer
			if e.outFull[si] != 0 {
				continue
			}
			v := e.nbr[lbase+p]
			class, work := e.algo.Inject(v, pkt.Dst)
			pkt.Class = class
			pkt.Work = work
			pkt.MinFree = 1
			pkt.Hops++
			pkt.MarkMisrouted()
			e.outRef[si] = r
			e.qDrop(u, qi, idx)
			e.outFull[si] = e.arrivalCode(lbase+p, pkt)
			e.outLink[lbase+p]++
			e.outCount[u]++
			st.moves++
			if e.obsOn {
				st.obs.Inc(obs.CMisrouted)
			}
			return true
		}
	}
	if e.obsOn {
		st.obs.Inc(obs.COutputStalls)
	}
	return false
}
