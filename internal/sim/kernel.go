package sim

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// kernel is everything a packet engine needs that is not its node model:
// the packet tables, the central queues, the injection queues and their
// traffic-source plumbing, delivery and fault-drop accounting, fault-event
// replay, the metrics core, and the Start/Step/Run driver with its
// watchdog. Engine (the buffered node of Sections 6-7.1) and AtomicEngine
// (Route(q) of Section 2) embed it by value and add only their per-cycle
// body.
//
// Per-packet and per-node kernel code is called directly as concrete
// methods; the one indirection is the per-cycle body the model hands over at
// Start (plus the purge calls of fault replay, once per fault event).
type kernel struct {
	cfg      Config
	algo     core.Algorithm
	topo     topology.Topology
	model    nodeModel
	nodes    int
	ports    int
	classes  int
	queueCap int
	// minimal caches Props().Minimal so the per-delivery hop assertion does
	// not pay an interface call.
	minimal bool
	nbr     []int32 // neighbor table [node*ports+port]; -1 for missing links

	// tabs holds one packet table per worker shard and owner maps a node to
	// its shard. Every packet slot of a node — central queue, injection
	// queue, link buffer — holds a 4-byte reference into its owner's table,
	// so a worker touches only its own table during the parallel phases.
	tabs  []pktTable
	owner []int32

	// Central queues: fixed-capacity FIFO rings of packet references. Queue
	// qi = node*classes+class occupies qref[qi*queueCap:(qi+1)*queueCap] with
	// head qhead[qi] and length qlen[qi], so queue scans stay on sequential
	// memory and need no per-queue ring allocations.
	qref  []int32
	qhead []int32
	qlen  []int32

	// injRef is each node's injection queue (size 1): the reference of the
	// packet waiting there while bit u of injFull (word u/64) is set, and
	// injClass its class, so that the engines test whether it can enter its
	// central queue without reading its record (injByRecord there sends them
	// to the record). injFull is handed to BatchSource.FillCycle so the
	// source can fail blocked attempts without a per-node engine call.
	// injBits marks nodes whose traffic source is not yet exhausted, so
	// drained sources cost nothing. Shards are 64-aligned: every word of
	// either bitmap has exactly one writer between barriers.
	injRef   []int32
	injClass []uint8
	injFull  []uint64
	injBits  []uint64
	rngs     []xrand.RNG
	nextID   []int64 // per-node packet id counters (determinism)

	// flt is the fault-injection machinery; nil when Config.Faults is unset,
	// so the no-fault hot path pays one pointer test per guarded site.
	flt *faultState

	// obsOn gates every metric instrumentation site in the hot loop.
	obsOn    bool
	obsCore  *obs.Core
	observer obs.Observer

	// statsBuf and batchBuf hold one entry per worker shard (one in all for
	// the atomic engine). Each batch buffer is sized to the node count;
	// allocated on the first batched run.
	statsBuf []cycleStats
	batchBuf [][]core.PendingInject

	rs runState
}

// nodeModel is what the kernel asks of the engine embedding it.
type nodeModel interface {
	// begin clears the model's own state for a new run and returns the
	// per-cycle body: everything between fault replay and the stats merge.
	begin() func(cycle int64)
	// release drops per-run references the model holds outside the kernel.
	release()
	// purgeNode drops every packet the dead node u holds; purgeLink those
	// committed to the dead directed link l = node*ports+port.
	purgeNode(u int32, cycle int64, st *cycleStats)
	purgeLink(l int, cycle int64, st *cycleStats)
}

// pktTable is one shard's packet records. A reference is taken when a
// packet enters its injection queue and given back when it is delivered or
// dropped, so the table holds the packets in flight, not one record per
// slot. Only the shard's worker reads it, allocates from it and frees into
// it (a packet that crosses to another shard is copied out, see mailLane),
// so the table grows in alloc, in its owner's phase, and no other worker
// observes it. Every record in use is held by one of the shard's slots, so
// neither the table nor free ever needs room for more than slots entries
// (see grow).
type pktTable struct {
	pkts  []core.Packet
	free  []int32 // free[:nfree] are released references, reused last-in first-out
	nfree int
	slots int // the places a packet can wait in the shard
}

// alloc returns an unused reference: the last one released, or a new
// record. It is small enough to inline into the injection and fold loops;
// the new record is the out-of-line slow path.
func (t *pktTable) alloc() int32 {
	if t.nfree == 0 {
		return t.extend()
	}
	t.nfree--
	return t.free[t.nfree]
}

// extend appends a record, growing the table when it is full, and returns
// its reference.
//
//go:noinline
func (t *pktTable) extend() int32 {
	if len(t.pkts) == cap(t.pkts) {
		t.pkts = grow(t.pkts, t.slots)
	}
	t.pkts = append(t.pkts, core.Packet{})
	return int32(len(t.pkts) - 1)
}

// release gives reference r back.
func (t *pktTable) release(r int32) {
	if t.nfree == len(t.free) {
		g := grow(t.free, t.slots)
		t.free = g[:cap(g)]
	}
	t.free[t.nfree] = r
	t.nfree++
}

// grow returns the full slice s with room for more: append's growth, but
// never past limit, which append's rounding to a size class can pass.
func grow[E any](s []E, limit int) []E {
	if g := append(s, *new(E))[:len(s)]; cap(g) <= limit {
		return g
	}
	return append(make([]E, 0, limit), s...)
}

// sizeTables gives each shard's table its slot count, the queue slots and
// injection queue of each of its nodes plus linkSlots(u), and room for one
// packet per node.
func (k *kernel) sizeTables(linkSlots func(u int) int) {
	nodes := make([]int, len(k.tabs))
	for u := 0; u < k.nodes; u++ {
		w := k.owner[u]
		nodes[w]++
		k.tabs[w].slots += k.classes*k.queueCap + 1 + linkSlots(u)
	}
	for w := range k.tabs {
		k.tabs[w].pkts = make([]core.Packet, 0, nodes[w])
		k.tabs[w].free = make([]int32, 0, nodes[w])
	}
}

// injByRecord is the injClass of a packet the engines read the record of
// before it enters its queue: one addressed to its own node (the atomic
// engine delivers it from the injection queue), or one whose class is the
// sentinel itself.
const injByRecord = 255

// runWindow holds the measurement bounds of a run.
type runWindow struct {
	start int64 // first cycle whose deliveries/attempts are measured
	end   int64 // exclusive; <0 means measure to the end of the run
}

func (w runWindow) contains(cycle int64) bool {
	return cycle >= w.start && (w.end < 0 || cycle < w.end)
}

// cycleStats accumulates per-worker observations that are folded into
// Metrics once per cycle.
type cycleStats struct {
	tally
	// deliveries holds the cycle's deliveries while an observer is attached,
	// for mergeCycle to replay; its storage is reused from cycle to cycle.
	deliveries []delivery
	_          [16]byte // pad: keeps the counters and the shard on separate lines

	// obs is the worker's metric shard, folded into the engine's obs.Core
	// at the same barrier that merges the fields above. It stays zero (and
	// unread) unless the engine's metrics core is enabled.
	obs obs.Shard

	// Tail pad: stats live one-per-worker in a contiguous slice, and a
	// trailing cache line guarantees no two workers' per-cycle increments
	// ever share a line regardless of the struct's total size.
	_ [64]byte
}

// tally is the part of cycleStats that mergeCycle adds to Metrics and then
// zeroes. The rest is never reassigned as a whole: Fold clears the obs shard
// and deliveries keeps its storage, so the per-cycle reset writes 88 bytes.
type tally struct {
	moves        int64
	dynamicMoves int64
	injected     int64
	delivered    int64
	dropped      int64
	attempts     int64
	successes    int64
	latencySum   int64
	latencyMax   int64
	measured     int64
	maxQueue     int
}

// delivery is one delivery an attached observer has yet to see: the packet
// as it arrived and its latency.
type delivery struct {
	pkt core.Packet
	lat int64
}

// runState is the control state of a stepwise run; Start replaces it
// wholesale. The pool workers read src, batch, win and m.Cycles during the
// phases: every write is sequenced before the barrier that releases them.
type runState struct {
	src       TrafficSource
	batch     BatchSource // src as a BatchSource while the run injects batched
	win       runWindow
	stopAt    int64
	maxCycles int64
	drain     bool
	idle      int
	m         Metrics
	body      func(cycle int64)

	// PhaseProf: mark is the start of the section being timed, lap the
	// sections of the current cycle, lastCycleEnd the anchor of OtherNs.
	pt           PhaseTimes
	mark         time.Time
	lap          [numPhases]int64
	lastCycleEnd time.Time

	active bool // Start was called
	done   bool // the run finished; res/err hold the outcome
	res    RunResult
	err    error
}

// The timed sections of a cycle, in PhaseTimes order.
const (
	phInject = iota
	phA
	phB
	phLink
	phMerge
	numPhases
)

// init sizes the shared state for a filled config; shards is the number of
// worker shards the model will run.
func (k *kernel) init(cfg Config, model nodeModel, shards int) error {
	a := cfg.Algorithm
	t := a.Topology()
	*k = kernel{
		cfg: cfg, algo: a, topo: t, model: model,
		nodes: t.Nodes(), ports: t.Ports(), classes: a.NumClasses(),
		queueCap: cfg.QueueCap, minimal: a.Props().Minimal,
	}
	if k.ports > core.MaxPorts {
		return fmt.Errorf("sim: %s has %d ports per node, above the %d a port mask holds", t.Name(), k.ports, core.MaxPorts)
	}
	nQueues := k.nodes * k.classes
	k.qref = make([]int32, nQueues*k.queueCap)
	k.qhead = make([]int32, nQueues)
	k.qlen = make([]int32, nQueues)
	k.nbr = make([]int32, k.nodes*k.ports)
	for u := 0; u < k.nodes; u++ {
		for p := 0; p < k.ports; p++ {
			v := t.Neighbor(u, p)
			if v == topology.None || v == u {
				v = -1
			}
			k.nbr[u*k.ports+p] = int32(v)
		}
	}
	nWords := (k.nodes + 63) / 64
	k.injRef = make([]int32, k.nodes)
	k.injClass = make([]uint8, k.nodes)
	k.owner = make([]int32, k.nodes)
	// The model sizes the tables once it has cut the shards (sizeTables).
	k.tabs = make([]pktTable, shards)
	k.injFull = make([]uint64, nWords)
	k.injBits = make([]uint64, nWords)
	k.rngs = make([]xrand.RNG, k.nodes)
	k.nextID = make([]int64, k.nodes)
	k.statsBuf = make([]cycleStats, shards)
	if !cfg.Faults.Empty() {
		sched, err := cfg.Faults.Compile(t)
		if err != nil {
			return err
		}
		k.flt = newFaultState(t, sched, cfg.HopBudget)
	}
	k.observer = cfg.Observer
	k.obsOn = cfg.Observer != nil || cfg.Metrics
	if k.obsOn {
		k.obsCore = obs.NewCore()
	}
	return nil
}

// reset returns the shared state to the start of a run.
func (k *kernel) reset() {
	clear(k.qlen)
	clear(k.qhead)
	clear(k.injFull)
	for i := range k.tabs {
		k.tabs[i].pkts, k.tabs[i].nfree = k.tabs[i].pkts[:0], 0
	}
	for i := range k.statsBuf {
		k.statsBuf[i] = cycleStats{deliveries: k.statsBuf[i].deliveries[:0]}
	}
	for u := range k.rngs {
		k.rngs[u] = xrand.New(k.cfg.Seed, int32(u))
		k.nextID[u] = int64(u) << 36
	}
	for i := range k.injBits {
		k.injBits[i] = ^uint64(0)
	}
	if tail := uint(k.nodes % 64); tail != 0 {
		k.injBits[len(k.injBits)-1] = (uint64(1) << tail) - 1
	}
	if k.flt != nil {
		k.flt.reset()
	}
	if k.obsOn {
		k.obsCore.Reset()
	}
}

func (k *kernel) queueIndex(node int32, class core.QueueClass) int {
	return int(node)*k.classes + int(class)
}

// qSlot returns the index in qref of the i-th entry (FIFO order) of queue qi.
func (k *kernel) qSlot(qi int, i int32) int {
	pos := k.qhead[qi] + i
	if pos >= int32(k.queueCap) {
		pos -= int32(k.queueCap)
	}
	return qi*k.queueCap + int(pos)
}

// pkt returns the record that reference r of a slot of node u points to.
func (k *kernel) pkt(u, r int32) *core.Packet { return &k.tabs[k.owner[u]].pkts[r] }

// qAt returns the i-th packet (FIFO order) of queue qi, in place.
func (k *kernel) qAt(qi int, i int32) *core.Packet {
	return k.pkt(int32(qi/k.classes), k.qref[k.qSlot(qi, i)])
}

// Algorithm returns the routing algorithm the engine simulates.
func (k *kernel) Algorithm() core.Algorithm { return k.algo }

// Obs returns the engine's metrics core, or nil when observability is off
// (no Observer attached and Config.Metrics unset). The core's Latest and
// Handler are safe to use concurrently with a run — the hook behind
// routesim's /metrics endpoint.
func (k *kernel) Obs() *obs.Core { return k.obsCore }

// Result returns the outcome of the run once Step reported done (or Run
// returned); before that it returns the zero RunResult and a nil error.
func (k *kernel) Result() (RunResult, error) { return k.rs.res, k.rs.err }

// Metrics returns the aggregate metrics of the current (possibly still
// running) stepwise run.
func (k *kernel) Metrics() Metrics { return k.rs.m }

// PhaseTimes returns the accumulated per-phase breakdown of the current (or
// finished) run; all zero unless Config.PhaseProf was set. The atomic
// model's sections map onto the phase names: injection draws to InjectNs,
// the injection-queue drain to PhaseBNs, the Route(q) sweep to PhaseANs
// (there is no link phase).
func (k *kernel) PhaseTimes() PhaseTimes { return k.rs.pt }

// Start begins a stepwise run: the engine is reset and each subsequent Step
// call simulates exactly one cycle. Run is Start plus a Step loop; use
// Start/Step directly to interleave simulation with other work or inspect
// engine state between cycles (State, Metrics).
func (k *kernel) Start(src TrafficSource, plan Plan) {
	k.reset()
	rs := &k.rs
	*rs = runState{src: src, active: true, drain: plan.Drain}
	if plan.Drain {
		rs.win, rs.maxCycles = runWindow{0, -1}, plan.MaxCycles
	} else {
		end := plan.Warmup + plan.Measure
		rs.win, rs.stopAt, rs.maxCycles = runWindow{plan.Warmup, end}, end, end
	}
	// Fault backoff and dead-node gating are interleaved per node in the
	// scalar path, so faulted runs never batch.
	if k.flt == nil {
		rs.batch, _ = src.(BatchSource)
	}
	if rs.batch != nil && k.batchBuf == nil {
		k.batchBuf = make([][]core.PendingInject, len(k.statsBuf))
		for i := range k.batchBuf {
			k.batchBuf[i] = make([]core.PendingInject, k.nodes)
		}
	}
	rs.body = k.model.begin()
}

// Run simulates according to plan, stopping early — within one cycle — if
// ctx is canceled or its deadline passes. On cancellation it returns the
// partial RunResult together with ctx.Err(). A nil ctx means never cancel.
func (k *kernel) Run(ctx context.Context, src TrafficSource, plan Plan) (RunResult, error) {
	k.Start(src, plan)
	defer func() {
		// A panic mid-cycle (a failed invariant, a panicking observer) must
		// not leave the source or the body closure retained across runs.
		if !k.rs.done {
			k.releaseRun()
		}
	}()
	for {
		if canceled(ctx) {
			k.end(true, ctx.Err())
			return k.rs.res, k.rs.err
		}
		if done, _ := k.Step(); done {
			return k.rs.res, k.rs.err
		}
	}
}

// canceled reports whether ctx is done (nil ctx never is).
func canceled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// releaseRun drops the per-run references, so neither the engine nor parked
// pool workers retain the traffic source or the body closure.
func (k *kernel) releaseRun() {
	k.rs.src, k.rs.batch, k.rs.body = nil, nil, nil
	k.model.release()
}

// end records the run's outcome, assembling the RunResult and firing the
// observer's OnDone probe exactly once.
func (k *kernel) end(wasCanceled bool, err error) {
	rs := &k.rs
	rs.res = RunResult{Metrics: rs.m, Canceled: wasCanceled}
	if k.obsOn {
		snap := k.obsCore.EndCycle(rs.m.Cycles)
		rs.res.Snapshot = *snap
		rs.res.Observed = true
		if k.observer != nil {
			k.observer.OnDone(snap)
		}
	}
	rs.err = err
	rs.done = true
	k.releaseRun()
}

// lap closes timed section p of the current cycle; a no-op without
// Config.PhaseProf, so the bodies call it unconditionally.
func (k *kernel) lap(p int) {
	if !k.cfg.PhaseProf {
		return
	}
	now := time.Now()
	k.rs.lap[p] = now.Sub(k.rs.mark).Nanoseconds()
	k.rs.mark = now
}

// Step simulates one cycle of the started plan and reports whether the run
// finished (normally or with an error); Result then returns the outcome.
// Calling Step again after done is a no-op returning the same outcome.
func (k *kernel) Step() (done bool, err error) {
	rs := &k.rs
	if !rs.active {
		panic("sim: Step called before Start")
	}
	if rs.done {
		return true, rs.err
	}
	m := &rs.m
	cycle := m.Cycles
	if rs.stopAt > 0 && cycle >= rs.stopAt {
		k.end(false, nil)
		return true, nil
	}
	if rs.maxCycles > 0 && cycle > rs.maxCycles {
		k.end(false, fmt.Errorf("sim: %s exceeded %d cycles with %d packets in flight",
			k.algo.Name(), rs.maxCycles, m.InFlight))
		return true, rs.err
	}
	prevMoves := m.Moves
	if k.flt != nil {
		// Fault events apply sequentially at the cycle boundary, before the
		// body observes the liveness masks.
		k.applyFaults(cycle, &k.statsBuf[0])
	}
	prof := k.cfg.PhaseProf
	other := int64(0)
	if prof {
		// Each section's figure includes its barrier, so synchronization is
		// charged to the phase that paid it. OtherNs is everything between
		// the previous cycle's merge and this cycle's body.
		rs.mark = time.Now()
		if !rs.lastCycleEnd.IsZero() {
			other = rs.mark.Sub(rs.lastCycleEnd).Nanoseconds()
		}
	}
	rs.body(cycle)
	k.mergeCycle(m)
	if prof {
		k.lap(phMerge)
		rs.lastCycleEnd = rs.mark
		rs.pt.add(rs.lap, other)
		if k.obsOn {
			c := k.obsCore
			c.AddCounter(obs.CPhaseInjectNs, rs.lap[phInject])
			c.AddCounter(obs.CPhaseANs, rs.lap[phA])
			c.AddCounter(obs.CPhaseBNs, rs.lap[phB])
			c.AddCounter(obs.CPhaseLinkNs, rs.lap[phLink])
			c.AddCounter(obs.CPhaseMergeNs, rs.lap[phMerge])
			c.AddCounter(obs.CPhaseOtherNs, other)
		}
	}
	m.Cycles = cycle + 1
	m.InFlight = m.Injected - m.Delivered - m.Dropped
	if k.obsOn {
		c := k.obsCore
		c.SetGauge(obs.GInFlight, m.InFlight)
		c.SetGauge(obs.GMaxQueue, int64(m.MaxQueue))
		if k.flt != nil {
			c.SetGauge(obs.GDeadLinks, int64(k.flt.live.DeadLinks()))
			c.SetGauge(obs.GDeadNodes, int64(k.flt.live.DeadNodes()))
		}
		snap := c.EndCycle(m.Cycles)
		if k.observer != nil {
			k.observer.OnCycle(cycle, snap)
		}
	}

	if rs.drain && m.InFlight == 0 && k.allExhausted(rs.src) {
		k.end(false, nil)
		return true, nil
	}
	if m.Moves != prevMoves || m.InFlight == 0 {
		rs.idle = 0
		return false, nil
	}
	rs.idle++
	if rs.idle < deadlockWindow {
		return false, nil
	}
	derr := &ErrDeadlock{Cycle: cycle, InFlight: int(m.InFlight), Algorithm: k.algo.Name(), Dump: k.deadlockDump(cycle)}
	if d, ok := k.observer.(obs.DeadlockObserver); ok {
		d.OnDeadlock(derr.Dump)
	}
	k.end(false, derr)
	return true, derr
}

// mergeCycle folds the per-worker cycle stats into the run metrics, once
// per cycle. With the metrics core enabled it also mirrors the fields the
// metrics share with Metrics into each worker's obs shard (so the hot loop
// never double-counts them) and folds the shards — in worker order, so the
// merged snapshot is bit-deterministic. The attached observer's OnDeliver
// sees each worker's deliveries here, in worker order, on the goroutine that
// steps the run.
func (k *kernel) mergeCycle(m *Metrics) {
	for i := range k.statsBuf {
		st := &k.statsBuf[i]
		m.Moves += st.moves
		m.DynamicMoves += st.dynamicMoves
		m.Injected += st.injected
		m.Delivered += st.delivered
		m.Dropped += st.dropped
		m.Attempts += st.attempts
		m.Successes += st.successes
		m.LatencySum += st.latencySum
		m.Measured += st.measured
		if st.latencyMax > m.LatencyMax {
			m.LatencyMax = st.latencyMax
		}
		if st.maxQueue > m.MaxQueue {
			m.MaxQueue = st.maxQueue
		}
		if k.obsOn {
			sh := &st.obs
			sh.Add(obs.CInjected, st.injected)
			sh.Add(obs.CDelivered, st.delivered)
			sh.Add(obs.CMoves, st.moves)
			sh.Add(obs.CDynamicMoves, st.dynamicMoves)
			k.obsCore.Fold(sh) // and clears the shard
		}
		for _, d := range st.deliveries {
			k.observer.OnDeliver(d.pkt, d.lat)
		}
		st.deliveries = st.deliveries[:0]
		st.tally = tally{}
	}
}

// allExhausted probes the still-active traffic sources in ascending node
// order, retiring nodes whose source has drained; it iterates only the
// worklist of active sources, not all N nodes.
func (k *kernel) allExhausted(src TrafficSource) bool {
	for wi := range k.injBits {
		for word := k.injBits[wi]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if !src.Exhausted(int32(wi*64 + b)) {
				return false
			}
			k.injBits[wi] &^= 1 << uint(b)
		}
	}
	return true
}

// inject is the injection phase over worker w's shard [lo, hi): one
// FillCycle call and a commit loop when the run is batched, one Wants/Take
// round per source-active node otherwise. The two paths account attempts,
// successes and the obs counters identically.
func (k *kernel) inject(w, lo, hi int) {
	st, t := &k.statsBuf[w], &k.tabs[w]
	cycle, win := k.rs.m.Cycles, k.rs.win
	if bs := k.rs.batch; bs != nil {
		buf := k.batchBuf[w]
		n, blocked := bs.FillCycle(cycle, int32(lo), int32(hi), k.injFull, buf)
		if k.obsOn {
			st.obs.Add(obs.CInjAttempts, int64(n+blocked))
			st.obs.Add(obs.CInjBackpressure, int64(blocked))
		}
		for i := range buf[:n] {
			k.enqueue(t, buf[i].Node, buf[i].Dst, cycle)
		}
		st.injected += int64(n)
		if win.contains(cycle) {
			st.attempts += int64(n + blocked)
			st.successes += int64(n)
		}
		return
	}
	src := k.rs.src
	base := lo >> 6
	for wi, word := range k.injBits[base : (hi+63)>>6] {
		for ; word != 0; word &= word - 1 {
			k.injectNode(t, int32((base+wi)*64+bits.TrailingZeros64(word)), cycle, src, win, st)
		}
	}
}

// enqueue places a fresh packet from u to dst, a record of u's table t, in
// u's injection queue.
func (k *kernel) enqueue(t *pktTable, u, dst int32, cycle int64) {
	class, work := k.algo.Inject(u, dst)
	k.nextID[u]++
	r := t.alloc()
	t.pkts[r] = core.Packet{
		ID: k.nextID[u], Src: u, Dst: dst, InjectedAt: cycle,
		Class: class, MinFree: 1, Work: work,
	}
	k.injRef[u] = r
	k.injClass[u] = class
	if dst == u || class == injByRecord {
		k.injClass[u] = injByRecord
	}
	k.injFull[u>>6] |= 1 << (uint(u) & 63)
}

// injectNode lets node u attempt one injection into its injection queue.
func (k *kernel) injectNode(t *pktTable, u int32, cycle int64, src TrafficSource, win runWindow, st *cycleStats) {
	if src.Exhausted(u) {
		k.injBits[u>>6] &^= 1 << (uint(u) & 63)
		return
	}
	f := k.flt
	if f != nil {
		if !f.live.NodeAlive(int(u)) {
			return // a dead node does not consult its source
		}
		if cycle < f.injNext[u] {
			// Retry-with-backoff: the node's last attempts hit a saturated
			// queue pool; it sits out the backoff window.
			if k.obsOn {
				st.obs.Inc(obs.CInjRetries)
			}
			return
		}
	}
	if !src.Wants(u, cycle) {
		return
	}
	inWin := win.contains(cycle)
	if inWin {
		st.attempts++
	}
	if k.obsOn {
		st.obs.Inc(obs.CInjAttempts)
	}
	if k.injFull[u>>6]>>(uint(u)&63)&1 != 0 {
		// Injection queue occupied: the attempt fails.
		if k.obsOn {
			st.obs.Inc(obs.CInjBackpressure)
		}
		if f != nil {
			f.backoff(u, cycle)
		}
		return
	}
	dst := src.Take(u, cycle)
	st.injected++
	if inWin {
		st.successes++
	}
	if f != nil {
		f.injFail[u] = 0
		if !f.live.NodeAlive(int(dst)) || (f.livePorts[u] == 0 && dst != u) {
			// Unroutable at injection: the destination is dead, or the
			// source is isolated. The packet counts as injected and then
			// immediately dropped, keeping Injected-Delivered-Dropped exact.
			k.nextID[u]++
			k.faultDrop(&core.Packet{ID: k.nextID[u], Src: u, Dst: dst, InjectedAt: cycle}, cycle, st)
			return
		}
	}
	k.enqueue(t, u, dst, cycle)
}

// deliver consumes packet r of table t at its destination, gives the
// reference back and updates statistics, asserting the livelock-freedom hop
// bound (and exact minimality for minimal algorithms). An attached observer
// gets the delivery at the cycle merge (see cycleStats.deliveries).
func (k *kernel) deliver(t *pktTable, r int32, cycle int64, win runWindow, st *cycleStats) {
	pkt := &t.pkts[r]
	// Misrouted packets left the minimal path to dodge a fault; their hop
	// bound is the misroute budget, enforced at misroute time instead.
	if !pkt.Misrouted() {
		bound := k.algo.MaxHops(pkt.Src, pkt.Dst)
		if pkt.HopCount() > bound {
			panic(fmt.Sprintf("sim: %s: packet %d took %d hops from %d to %d, bound %d",
				k.algo.Name(), pkt.ID, pkt.HopCount(), pkt.Src, pkt.Dst, bound))
		}
		if k.minimal && pkt.HopCount() != bound {
			panic(fmt.Sprintf("sim: %s: minimal algorithm delivered packet %d in %d hops, distance %d",
				k.algo.Name(), pkt.ID, pkt.HopCount(), bound))
		}
	}
	st.delivered++
	st.moves++
	lat := cycle - pkt.InjectedAt + 1
	if k.observer != nil {
		st.deliveries = append(st.deliveries, delivery{*pkt, lat})
	}
	if k.obsOn {
		st.obs.Observe(obs.HLatency, lat)
	}
	if win.contains(cycle) {
		st.latencySum += lat
		st.measured++
		if lat > st.latencyMax {
			st.latencyMax = lat
		}
	}
	t.release(r)
}

// faultDrop accounts one packet lost to faults. The drop itself (removing
// the packet from whatever structure held it) is the caller's job.
func (k *kernel) faultDrop(pkt *core.Packet, cycle int64, st *cycleStats) {
	st.dropped++
	if k.obsOn {
		st.obs.Inc(obs.CFaultDrops)
		st.obs.Observe(obs.HDropAge, cycle-pkt.InjectedAt+1)
	}
}

// dropRef is faultDrop for packet r of table t, giving the reference back.
func (k *kernel) dropRef(t *pktTable, r int32, cycle int64, st *cycleStats) {
	k.faultDrop(&t.pkts[r], cycle, st)
	t.release(r)
}

// purgeQueues drops everything dead node u holds in its central queues and
// its injection queue; the models add what else they keep at a node.
func (k *kernel) purgeQueues(u int32, cycle int64, st *cycleStats) {
	t := &k.tabs[k.owner[u]]
	for c := 0; c < k.classes; c++ {
		qi := int(u)*k.classes + c
		n := k.qlen[qi]
		for i := int32(0); i < n; i++ {
			k.dropRef(t, k.qref[k.qSlot(qi, i)], cycle, st)
		}
		k.qlen[qi] = 0
		k.qhead[qi] = 0
		if k.obsOn && n > 0 {
			st.obs.GaugeAdd(obs.GQueueOccupancy, -int64(n))
		}
	}
	if k.injFull[u>>6]>>(uint(u)&63)&1 != 0 {
		k.dropRef(t, k.injRef[u], cycle, st)
		k.injFull[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// applyFaults replays all schedule events due at or before cycle. It runs
// sequentially before the cycle body, so purges and liveness flips are
// ordered identically for every worker count.
func (k *kernel) applyFaults(cycle int64, st *cycleStats) {
	f := k.flt
	evs := f.sched.Events
	changed := false
	for f.nextEv < len(evs) && evs[f.nextEv].At <= cycle {
		ev := evs[f.nextEv]
		f.nextEv++
		switch {
		case ev.Port < 0 && ev.Up:
			f.live.ReviveNode(int(ev.Node))
		case ev.Port < 0:
			if f.live.KillNode(int(ev.Node)) {
				k.model.purgeNode(ev.Node, cycle, st)
			}
		case ev.Up:
			f.live.ReviveLink(int(ev.Node), int(ev.Port))
		default:
			if f.live.KillLink(int(ev.Node), int(ev.Port)) {
				k.model.purgeLink(int(ev.Node)*k.ports+int(ev.Port), cycle, st)
			}
		}
		changed = true
	}
	if changed {
		f.recomputeLivePorts()
	}
}

// choose applies the selection policy to the admissible candidates of a
// packet, in candidate order: the internal moves in ai (bit i: internal
// move i), then the ports in ap, ascending; dyn marks the dynamic ports.
// The set is not empty. It returns the internal move's index, or -1 and
// the port.
func choose(pol Policy, r *xrand.RNG, ai uint8, ap, dyn uint64) (int, int) {
	switch pol {
	case PolicyFirstFree:
		if ai != 0 {
			return bits.TrailingZeros8(ai), 0
		}
		return -1, bits.TrailingZeros64(ap)
	case PolicyLastFree:
		if ap != 0 {
			return -1, 63 - bits.LeadingZeros64(ap)
		}
		return 7 - bits.LeadingZeros8(ai), 0
	case PolicyStaticFirst:
		// Internal moves are static.
		if n := bits.OnesCount8(ai) + bits.OnesCount64(ap&^dyn); n > 0 {
			return nth(ai, ap&^dyn, r.Intn(n))
		}
	}
	return nth(ai, ap, r.Intn(bits.OnesCount8(ai)+bits.OnesCount64(ap)))
}

// drawDelivery advances u's generator as the random policies always have
// at a delivery: a draw among its one candidate.
func (k *kernel) drawDelivery(u int32) {
	if p := k.cfg.Policy; p == PolicyRandom || p == PolicyStaticFirst {
		k.rngs[u].Next()
	}
}

// nth returns the k-th candidate of (ai, ap) in candidate order, as choose
// does.
func nth(ai uint8, ap uint64, k int) (int, int) {
	if n := bits.OnesCount8(ai); k >= n {
		_, upper := splitAt(ap, k-n)
		return -1, bits.TrailingZeros64(upper)
	}
	_, upper := splitAt(uint64(ai), k)
	return bits.TrailingZeros64(upper), 0
}

// splitAt returns the set bits of m below its k-th (counting from 0) and
// the rest: a scan that starts at the k-th bit and wraps visits upper, then
// lower.
func splitAt(m uint64, k int) (lower, upper uint64) {
	upper = m
	for i := 0; i < k; i++ {
		upper &= upper - 1
	}
	return m ^ upper, upper
}

// deadlockDump assembles the wait-for state behind a watchdog firing: one
// entry per non-empty central queue head, with the outputs its candidates
// wait on.
func (k *kernel) deadlockDump(cycle int64) *obs.DeadlockDump {
	d := &obs.DeadlockDump{Cycle: cycle, Window: deadlockWindow, InFlight: k.rs.m.InFlight}
	var pm core.PortMasks
	for qi, qlen := range k.qlen {
		if qlen == 0 {
			continue
		}
		if len(d.Waits) >= obs.DumpLimit {
			d.Truncated = true
			return d
		}
		u, c := int32(qi/k.classes), qi%k.classes
		pkt := k.qAt(qi, 0)
		w := obs.WaitFor{
			Node: u, Class: uint8(c), QueueLen: int(qlen),
			PacketID: pkt.ID, Dst: pkt.Dst,
		}
		if k.algo.PortMask(u, core.QueueClass(c), pkt.Work, pkt.Dst, &pm) || !pm.Deliver {
			for m := pm.StaticUnion() | pm.Dyn; m != 0; m &= m - 1 {
				p := bits.TrailingZeros64(m)
				bc, dyn := pm.Class(p)
				if dyn {
					bc = uint8(k.classes)
				}
				w.WaitsOn = append(w.WaitsOn, obs.WaitTarget{
					Node: int32(k.topo.Neighbor(int(u), p)), Port: int16(p),
					Class: bc, Dynamic: dyn, Dead: k.flt != nil && k.flt.livePorts[u]>>uint(p)&1 == 0,
				})
			}
		}
		d.Waits = append(d.Waits, w)
	}
	return d
}
