package sim

import (
	"encoding/binary"
	"math/bits"
	"runtime"

	"repro/internal/core"
	"repro/internal/obs"
)

// Engine is the buffered cycle-accurate simulator of Sections 6 and 7.1.
//
// Every directed link (u, port) carries bufClasses = NumClasses+1 output
// buffers at u and the matching input buffers at the far end: one buffer per
// static target queue plus one shared buffer for dynamic transitions,
// exactly the node designs of Figures 4-6. One routing cycle is:
//
//	injection: each node draws from the traffic source into its (size-1)
//	           injection queue;
//	node  (a): each node moves packets from its central queues into free
//	           output buffers / internal targets, scanning packets in FIFO
//	           order so the first message in FIFO order wins a contended
//	           buffer;
//	node  (b): each node drains its input buffers and injection queue into
//	           the central queues under a rotating fair order, consuming
//	           packets that arrived at their destination;
//	link:      each directed link transfers at most one packet, choosing
//	           among its occupied output buffers under a rotating fair
//	           order, and only into an empty input buffer.
//
// The hot loop is organized for throughput:
//
//   - a packet lives in one record of its shard's packet table (kernel.tabs)
//     from injection to delivery; queue slots and link buffers hold 4-byte
//     references to it, so a hop, a queue shift and a link transfer move a
//     reference, and engine memory follows the packets in flight, not the
//     slot count;
//   - the central queues are one contiguous reference array with per-queue
//     head/length arrays (structure of arrays), so queue scans stay in
//     cache and need no per-queue ring allocations;
//   - link buffers keep their occupancy flags apart from their references,
//     so the admissibility probes and the link/drain scans touch a compact
//     flag array; a flag is the packet's arrival code (see arriveByRecord),
//     so phase (b) queues most arrivals without reading their record;
//   - per-node and per-link occupancy counters (qTotal, inCount, outCount,
//     outLink) let every phase exit its scans as soon as the remaining work
//     is known to be zero;
//   - a blocked buffer costs the link phase nothing: dnFull mirrors, at the
//     sender, the flag of each output slot's far-end input buffer, so "which
//     buffers can move" is outMask AND-NOT the packed mirror and no remote
//     flag is read. The mirror is bytes, not bits, so each flag has one
//     writer at a time — the sender sets it when its transfer lands (link
//     phase), the receiver clears it through inSrc when it drains the buffer
//     (inject/(a)/(b)) — with a pool barrier between the two: no atomics;
//   - flag scans (packFlags, nextFull) read eight flags per 64-bit load and
//     never load past the scanned node's own flags, because the neighboring
//     bytes belong to a node another worker may be writing;
//   - a live-node bitmap (liveBits) — the active worklist — is maintained
//     incrementally at inject/push/drain/link time, so the phases iterate
//     only nodes that currently hold a packet and the drain tail of a
//     static run costs O(active), not O(N);
//   - with Workers > 1 the phases run on a persistent worker pool (pool.go)
//     sharded by contiguous, 64-aligned node ranges; the link phase posts a
//     packet crossing a shard boundary, record and all, to a per-worker-pair
//     mail lane, and the receiver copies it into its own table in the fold
//     phase that follows, which keeps every array and every table owned by
//     exactly one worker between barriers.
//
// Determinism: for a fixed seed the engine is bit-deterministic and
// independent of Workers. Every cross-shard interaction is barrier-ordered
// (mail lanes, input buffers), so node order within a phase cannot
// influence the outcome. The one exception is credited moves
// (shuffle-exchange bubble rings): a credited claim reads the occupancy of
// a queue at another node, which a sharded run could see mid-phase. Such
// algorithms (Props().Credits) therefore run on one worker only: Config
// refuses them with Workers > 1, and exec pins their RunSpecs to one worker.
// So every counter has one writer, and none needs an atomic. Parking (see
// qwait) changes no outcome, credited algorithms included: phase (a) skips a
// head only while every buffer its last scan failed on is still full, which
// is when the skipped scan would fail the same way. Observer deliveries are
// buffered per worker and replayed at the cycle merge in worker order, so
// OnDeliver runs on one goroutine and sees the same deliveries at every
// worker count.
type Engine struct {
	kernel
	bufClasses int

	// Blocked-packet wait masks (waitFast engines only). qwait parallels
	// qref: a non-zero mask records the node-local output-buffer slots
	// (bit p*bufClasses+bc) a fully-blocked packet is waiting on, and
	// outMask[u] mirrors u's outFull flags as a bitset. While every masked
	// slot stays full, re-running the candidate scan provably fails the
	// same way, so phase (a) skips it — packets park without paying the
	// PortMask call every cycle.
	qwait   []uint64
	outMask []uint64

	inbound []int32 // committed-but-not-delivered packets per queue (credit accounting)

	// Output buffers, structure of arrays, indexed by sender:
	// [(node*ports+port)*bufClasses+bc]. outFull is 0 while the buffer is
	// empty and the packet's arrival code while it holds one; outRef is the
	// packet's reference.
	outRef  []int32
	outFull []uint8
	outLink []uint8 // per directed link: number of occupied output buffers
	dnFull  []uint8 // downstream-full mirror: 1 while the slot's far-end input buffer is occupied

	// Input buffers, indexed by *receiver*: node v's buffers occupy
	// inRef[inBase[v] : inBase[v]+inDeg[v]], ordered by (sending node,
	// port, buffer class) ascending, so the phase (b) drain scans a
	// contiguous flag range instead of chasing per-link indices. inFull
	// holds arrival codes like outFull.
	inRef   []int32
	inFull  []uint8
	inBase  []int32
	inDeg   []int32
	inSrc   []int32  // per input link (input slot / bufClasses): the sender's first output slot
	linkDst []int32  // per directed link: first input-buffer index at the far end
	linkRR  []uint32 // per directed link: next buffer class to favor (< bufClasses)

	// liveBits is the active worklist: it marks nodes holding any packet
	// (central queues, injection queue, input or output buffers). Shards are
	// 64-aligned, so every word has exactly one writer between barriers.
	liveBits []uint64
	qTotal   []int32 // per node: packets across its central queues
	inCount  []int32 // per node: occupied inbound input buffers
	outCount []int32 // per node: occupied output buffers

	// waitFast enables the blocked-packet wait-mask cache. It requires a
	// node's output buffers to fit one word and no link liveness to consult:
	// a link that revives changes a packet's candidates without any local
	// buffer changing, which is why fault-enabled engines run without it.
	// Credited algorithms keep it: a failed credit or internal-move check
	// leaves the packet's wait mask empty (failOK), so a packet parks only
	// when every candidate failed on a full local output buffer, and only a
	// link transfer out of one of those buffers can change that outcome.
	waitFast bool
	slotPort [64]uint8 // waitFast: outMask bit -> port (avoids a division)

	workers int
	// bounds holds the shard boundaries: worker w owns nodes
	// [bounds[w], bounds[w+1]). Always 64-aligned (except the final bound,
	// the node count) so every liveBits/injBits word has exactly one writer.
	bounds  []int32
	scratch []workerScratch // one per worker
	// mail holds the workers*workers cross-shard arrival lanes, src-major:
	// lane srcWorker*workers+dstWorker. See mailLane. The owner table
	// (node -> worker) is the kernel's.
	mail []mailLane
	pool *phasePool
	// reaper carries the finalizer that stops pool. It sits on this small
	// handle, not on the engine: a finalizer keeps what its object reaches
	// alive for one more GC cycle, and the engine reaches its tables.
	reaper *poolReaper
}

// poolReaper is the engine's handle on its pool for the finalizer.
type poolReaper struct{ p *phasePool }

// mailLane is one cross-shard arrival lane from srcWorker to dstWorker: the
// packets srcWorker's link phase moved into input buffers of dstWorker's
// shard this cycle, copied out of srcWorker's table, which takes their
// references back. dstWorker's fold phase, right after the link phase,
// copies each into a record of its own table, so a worker allocates from
// and frees into its own table only, and the records cross between the
// cores as one sequential array. Lanes are stored src-major (lane
// srcWorker*workers+dstWorker), so all the lanes a worker appends to during
// its link phase are contiguous memory it owns; the pad keeps each slice
// header on its own cache line.
type mailLane struct {
	arr []arrival
	_   [40]byte // slice header (24 bytes on 64-bit) padded to a cache line
}

// arrival is one packet in a mail lane, bound for input buffer di of node v.
type arrival struct {
	pkt   core.Packet
	v, di int32
	code  uint8
}

// workerScratch holds per-worker reusable buffers so the hot loop does not
// allocate.
type workerScratch struct {
	lens []int32        // phase (a) queue-length snapshot, sized to NumClasses
	pm   core.PortMasks // PortMask scratch, overwritten per call

	// Phase (b) rotation cache: start = cycle mod (inDeg+1) computed once
	// per distinct degree per cycle, not once per node (regular topologies
	// pay a single division per worker per cycle).
	rotCycle int64
	rotTotal int
	rotStart int

	// touch sinks the record loads of loadRecords.
	touch int32

	// Tail pad: scratches live one-per-worker in a contiguous slice, and a
	// trailing cache line guarantees no two workers' written fields ever
	// share a line regardless of the struct's total size.
	_ [64]byte
}

// NewEngine builds a buffered engine for the given configuration. Engines
// with Workers > 1 own a persistent worker pool whose goroutines are
// created here and parked between runs. Once the engine is unreachable, one
// GC cycle frees it and runs the finalizer of its pool handle, which stops
// the goroutines.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &Engine{workers: cfg.Workers}
	if err := e.kernel.init(cfg, e, e.workers); err != nil {
		return nil, err
	}
	e.bufClasses = e.classes + 1
	e.inbound = make([]int32, e.nodes*e.classes)
	nLinks := e.nodes * e.ports
	e.outRef = make([]int32, nLinks*e.bufClasses)
	e.outFull = make([]uint8, nLinks*e.bufClasses)
	e.dnFull = make([]uint8, nLinks*e.bufClasses)
	e.outLink = make([]uint8, nLinks)
	e.linkDst = make([]int32, nLinks)
	e.inBase = make([]int32, e.nodes)
	e.inDeg = make([]int32, e.nodes)
	// Two passes: count each receiver's input links, then hand out its
	// contiguous input-buffer range in (sender, port, class) ascending order
	// — the same deterministic drain order as a per-link slot list would
	// give. next[v] is the global index of v's next unassigned input link.
	for _, v := range e.nbr {
		if v >= 0 {
			e.inDeg[v]++
		}
	}
	bc := int32(e.bufClasses)
	next := make([]int32, e.nodes)
	nInLinks := int32(0)
	for v := range next {
		next[v] = nInLinks
		e.inBase[v] = nInLinks * bc
		nInLinks += e.inDeg[v]
		e.inDeg[v] *= bc
	}
	e.inSrc = make([]int32, nInLinks)
	for l, v := range e.nbr {
		e.linkDst[l] = -1
		if v >= 0 {
			e.linkDst[l] = next[v] * bc
			e.inSrc[next[v]] = int32(l) * bc
			next[v]++
		}
	}
	nIn := nInLinks * bc
	e.inRef = make([]int32, nIn)
	e.inFull = make([]uint8, nIn)
	e.linkRR = make([]uint32, nLinks)
	e.waitFast = e.ports*e.bufClasses <= 64 && e.flt == nil
	if e.waitFast {
		e.qwait = make([]uint64, len(e.qref))
		e.outMask = make([]uint64, e.nodes)
		for b := 0; b < e.ports*e.bufClasses; b++ {
			e.slotPort[b] = uint8(b / e.bufClasses)
		}
	}
	e.liveBits = make([]uint64, (e.nodes+63)/64)
	e.qTotal = make([]int32, e.nodes)
	e.inCount = make([]int32, e.nodes)
	e.outCount = make([]int32, e.nodes)
	e.bounds = make([]int32, e.workers+1)
	e.uniformBounds()
	e.sizeTables(func(u int) int { return e.ports*e.bufClasses + int(e.inDeg[u]) })
	e.scratch = make([]workerScratch, e.workers)
	for i := range e.scratch {
		e.scratch[i].lens = make([]int32, e.classes)
	}
	e.mail = make([]mailLane, e.workers*e.workers)
	if e.workers > 1 {
		e.pool = newPhasePool(e.workers)
		e.reaper = &poolReaper{e.pool}
		runtime.SetFinalizer(e.reaper, func(r *poolReaper) { r.p.stop() })
	}
	return e, nil
}

// begin clears the node model's state for a new run and returns the cycle
// body. The phase closures are built once per run; release drops the one the
// pool still holds, so parked workers never retain the engine.
func (e *Engine) begin() func(cycle int64) {
	clear(e.inbound)
	clear(e.qwait)
	clear(e.outMask)
	clear(e.outFull)
	clear(e.dnFull)
	clear(e.inFull)
	clear(e.outLink)
	clear(e.linkRR)
	clear(e.qTotal)
	clear(e.inCount)
	clear(e.outCount)
	clear(e.liveBits)
	for i := range e.mail {
		e.mail[i].arr = e.mail[i].arr[:0]
	}
	inject := func(w int) { e.workerInject(w) }
	phaseA := func(w int) { e.workerPhaseA(w) }
	phaseB := func(w int) { e.workerPhaseB(w) }
	link := func(w int) { e.workerLink(w) }
	fold := func(w int) { e.workerFold(w) }
	var fused func(int)
	if !e.cfg.PhaseProf {
		// Inject/(a)/(b) touch only shard-owned state (a credited probe of
		// another node's queue runs on the one worker there is), so one
		// worker can run them back-to-back: the cycle pays three barriers
		// instead of five. The link phase and the fold still need their
		// own: the link phase writes the senders' lanes, which the fold
		// reads. PhaseProf forces the split pipeline so each phase is
		// individually timed.
		fused = func(w int) {
			e.workerInject(w)
			e.workerPhaseA(w)
			e.workerPhaseB(w)
		}
	}
	var parked int64 // the pool's park count at the last PhaseProf read
	if e.pool != nil {
		parked = e.pool.parks.Load()
	}
	return func(cycle int64) {
		if fused != nil {
			e.exec(fused)
		} else {
			e.exec(inject)
			e.lap(phInject)
			e.exec(phaseA)
			e.lap(phA)
			e.exec(phaseB)
			e.lap(phB)
		}
		e.exec(link)
		if e.workers > 1 {
			e.exec(fold)
		}
		e.lap(phLink)
		if fused == nil && e.pool != nil {
			n := e.pool.parks.Load()
			e.rs.pt.Parks += n - parked
			parked = n
		}
		if e.obsOn {
			e.obsCore.SetGauge(obs.GLiveNodes, e.liveCount())
		}
	}
}

// release drops the phase closure the pool holds between runs.
func (e *Engine) release() {
	if e.pool != nil {
		e.pool.clear()
	}
}

// shard returns worker w's node range.
func (e *Engine) shard(w int) (lo, hi int) {
	return int(e.bounds[w]), int(e.bounds[w+1])
}

// uniformBounds cuts the node range into equal 64-aligned shards and fills
// the owner table.
func (e *Engine) uniformBounds() {
	chunk := (((e.nodes+e.workers-1)/e.workers + 63) / 64) * 64
	for w := 0; w <= e.workers; w++ {
		b := w * chunk
		if b > e.nodes {
			b = e.nodes
		}
		e.bounds[w] = int32(b)
	}
	for w := 0; w < e.workers; w++ {
		lo, hi := e.bounds[w], e.bounds[w+1]
		for u := lo; u < hi; u++ {
			e.owner[u] = int32(w)
		}
	}
}

func (e *Engine) setLive(u int32) {
	e.liveBits[u>>6] |= 1 << (uint(u) & 63)
}

// qPush and qDrop route every central-queue mutation through the per-node
// worklist total. qPush appends packet reference r to queue qi.
func (e *Engine) qPush(u int32, qi int, r int32) int {
	n := e.qlen[qi]
	if int(n) == e.queueCap {
		panic("sim: push into a full queue (admissibility bug)")
	}
	pos := e.qhead[qi] + n
	if pos >= int32(e.queueCap) {
		pos -= int32(e.queueCap)
	}
	e.qref[qi*e.queueCap+int(pos)] = r
	if e.waitFast {
		e.qwait[qi*e.queueCap+int(pos)] = 0
	}
	e.qlen[qi] = n + 1
	e.qTotal[u]++
	if e.obsOn {
		sh := &e.statsBuf[e.owner[u]].obs
		sh.GaugeAdd(obs.GQueueOccupancy, 1)
		sh.Observe(obs.HQueueLen, int64(n+1))
	}
	return int(n + 1)
}

// qDrop removes the idx-th entry (FIFO order) of queue qi: the phase (a)
// commit paths have already handed its reference on, so the removal itself
// only has to shift references and account.
func (e *Engine) qDrop(u int32, qi int, idx int32) {
	cap32 := int32(e.queueCap)
	base := qi * e.queueCap
	head := e.qhead[qi]
	// Shift the elements before idx up by one slot, preserving FIFO order
	// of the remainder, then advance the head past the vacated slot.
	for j := idx; j > 0; j-- {
		dst := head + j
		if dst >= cap32 {
			dst -= cap32
		}
		src := head + j - 1
		if src >= cap32 {
			src -= cap32
		}
		e.qref[base+int(dst)] = e.qref[base+int(src)]
		if e.waitFast {
			e.qwait[base+int(dst)] = e.qwait[base+int(src)]
		}
	}
	head++
	if head >= cap32 {
		head -= cap32
	}
	e.qhead[qi] = head
	e.qlen[qi]--
	e.qTotal[u]--
	if e.obsOn {
		e.statsBuf[e.owner[u]].obs.GaugeAdd(obs.GQueueOccupancy, -1)
	}
}

// effectiveFree returns the target queue's capacity minus occupancy minus
// committed inbound packets: the room a credited claim or an internal move
// may take.
func (e *Engine) effectiveFree(qi int) int32 {
	return int32(e.queueCap) - e.qlen[qi] - e.inbound[qi]
}

// liveCount returns the number of nodes on the active worklist.
func (e *Engine) liveCount() int64 {
	n := 0
	for _, w := range e.liveBits {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// exec runs one phase across the worker shards: inline with one worker, on
// the persistent pool otherwise.
func (e *Engine) exec(fn func(int)) {
	if e.pool == nil {
		fn(0)
		return
	}
	e.pool.run(fn)
}

// workerFold takes in the packets the link phase moved into worker w's
// shard from other shards: each gets a record of w's table and its input
// buffer's reference, and its node the worklist and counter updates a
// same-shard arrival gets in linkMove.
func (e *Engine) workerFold(w int) {
	nw, t := e.workers, &e.tabs[w]
	for src := 0; src < nw; src++ {
		lane := &e.mail[src*nw+w]
		for i := range lane.arr {
			a := &lane.arr[i]
			r := t.alloc()
			t.pkts[r] = a.pkt
			e.inRef[a.di] = r
			e.inFull[a.di] = a.code
			e.inCount[a.v]++
			e.setLive(a.v)
		}
		lane.arr = lane.arr[:0]
	}
}

// workerInject is the injection phase over one shard: every source-active
// node attempts one injection.
func (e *Engine) workerInject(w int) {
	lo, hi := e.shard(w)
	if lo >= hi {
		return
	}
	e.inject(w, lo, hi)
	// A node with an occupied injection queue holds a packet, so the word-wise
	// OR puts this cycle's injectors on the worklist (and re-marks old ones).
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		e.liveBits[wi] |= e.injFull[wi]
	}
}

// workerPhaseA runs node phase (a) over the live nodes of one shard.
func (e *Engine) workerPhaseA(w int) {
	lo, hi := e.shard(w)
	if lo >= hi {
		return
	}
	st := &e.statsBuf[w]
	sc := &e.scratch[w]
	t := &e.tabs[w]
	cycle, win := e.rs.m.Cycles, e.rs.win
	// The class scan starts at cycle mod classes on every node (see
	// nodePhaseA), one division per call.
	rot := int(cycle % int64(e.classes))
	// Each node's records are loaded one node ahead of its scan: they are
	// wherever their references were last freed, and this way the cache
	// misses of one node overlap the routing of the one before.
	base := lo >> 6
	prev := int32(-1)
	for wi, word := range e.liveBits[base : (hi+63)>>6] {
		for ; word != 0; word &= word - 1 {
			u := int32((base+wi)*64 + bits.TrailingZeros64(word))
			if e.qTotal[u] != 0 {
				sc.touch += e.loadRecords(u, t.pkts)
				if prev >= 0 {
					e.nodePhaseA(prev, rot, cycle, win, st, sc, t)
				}
				prev = u
			}
		}
	}
	if prev >= 0 {
		e.nodePhaseA(prev, rot, cycle, win, st, sc, t)
	}
}

// parked reports whether a packet waiting on the output buffers wmask is
// still blocked: every one of them is full in outMask.
func parked(wmask, outMask uint64) bool { return wmask != 0 && outMask&wmask == wmask }

// loadRecords reads the destination of every packet in u's central queues
// that phase (a) will route (not parked, see qwait), so its record is in
// cache when nodePhaseA reaches it, and returns their sum for the caller to
// sink.
func (e *Engine) loadRecords(u int32, pkts []core.Packet) int32 {
	var sum int32
	qi0 := int(u) * e.classes
	for qi := qi0; qi < qi0+e.classes; qi++ {
		n, pos := e.qlen[qi], e.qhead[qi]
		if e.cfg.HeadOnly && n > 1 {
			n = 1
		}
		for ; n > 0; n-- {
			pi := qi*e.queueCap + int(pos)
			if !e.waitFast || !parked(e.qwait[pi], e.outMask[u]) {
				sum += pkts[e.qref[pi]].Dst
			}
			if pos++; pos == int32(e.queueCap) {
				pos = 0
			}
		}
	}
	return sum
}

// nodePhaseA moves packets from u's central queues into output buffers and
// internal targets. Packets are scanned in FIFO order per queue (classes in
// ascending order), so the first packet in FIFO order wins any contended
// buffer, as Section 7.1 prescribes. The packets are records of t, u's
// shard table; rot is cycle mod classes.
//
// Each packet's candidate set is its PortMask, and the policy selects among
// its admissible candidates: an internal move needs a free slot in its
// target queue (none for an in-place step), a port a free output buffer
// (and, credited, Credit free slots at the far queue). First-free stops at
// the first admissible candidate; the other policies see them all.
func (e *Engine) nodePhaseA(u int32, rot int, cycle int64, win runWindow, st *cycleStats, sc *workerScratch, t *pktTable) {
	pkts := t.pkts // phase (a) takes no reference, so the table cannot grow
	wf := e.waitFast
	on := e.obsOn
	f := e.flt
	pol := e.cfg.Policy
	ff := pol == PolicyFirstFree && f == nil
	headOnly := e.cfg.HeadOnly
	pm := &sc.pm
	lbase := int(u) * e.ports
	obase := lbase * e.bufClasses
	qi0 := int(u) * e.classes
	// Snapshot the queue lengths so packets moved internally this cycle
	// (e.g. a phase change into q_B) are not scanned again.
	lens := sc.lens
	for c := 0; c < e.classes; c++ {
		l := e.qlen[qi0+c]
		if headOnly && l > 1 {
			l = 1
		}
		lens[c] = l
	}
	// Rotate the class scan order each cycle: several queues can feed the
	// same output buffer (e.g. a phase-A packet performing its last 0->1
	// correction and a phase-B packet share the B buffer of a link), and a
	// fixed scan order would let one class starve the other indefinitely.
	for off := 0; off < e.classes; off++ {
		c := off + rot
		if c >= e.classes {
			c -= e.classes
		}
		if lens[c] == 0 {
			continue
		}
		qi := qi0 + c
		idx := int32(0)
		for scanned := int32(0); scanned < lens[c]; scanned++ {
			pos := e.qhead[qi] + idx
			if pos >= int32(e.queueCap) {
				pos -= int32(e.queueCap)
			}
			pi := qi*e.queueCap + int(pos)
			pkt := &pkts[e.qref[pi]]
			// Blocked-packet fast path: if every buffer the packet was
			// waiting on is still full, its scan is known to fail and is
			// skipped outright.
			if wf && parked(e.qwait[pi], e.outMask[u]) {
				if on {
					st.obs.Inc(obs.CWaitParked)
				}
				idx++
				continue
			}
			plain := e.algo.PortMask(u, core.QueueClass(c), pkt.Work, pkt.Dst, pm)
			if plain && ff {
				// The tables' case, the hot loop of the engine, inline: a plain
				// set takes its lowest port whose output buffer is free.
				fail, b := uint64(0), -1
				p, tc, dyn := 0, core.QueueClass(0), false
				for mk := pm.StaticUnion() | pm.Dyn; mk != 0; mk &= mk - 1 {
					p = bits.TrailingZeros64(mk)
					tc, dyn = pm.Class(p)
					b = int(tc)
					if dyn {
						b = e.classes
					}
					if b += p * e.bufClasses; e.outFull[obase+b] == 0 {
						break
					}
					fail |= 1 << uint(b&63)
					b = -1
				}
				if b < 0 {
					if wf {
						e.qwait[pi] = fail
					}
					if on {
						st.obs.Inc(obs.COutputStalls)
					}
					idx++
					continue
				}
				r := e.qref[pi]
				e.qDrop(u, qi, idx)
				e.send(u, p, tc, dyn, r, pkt, pm, false, st)
				continue
			}
			nint, credit := 0, uint8(0)
			if !plain {
				if pm.Deliver {
					e.drawDelivery(u)
					e.deliver(t, e.qref[pi], cycle, win, st)
					e.qDrop(u, qi, idx)
					continue
				}
				nint, credit = int(pm.Internal), pm.Credit
			}
			union := pm.StaticUnion() | pm.Dyn
			hashed := false
			if f != nil {
				union &= f.livePorts[u]
				if union == 0 && nint == 0 {
					// Faults removed every candidate: misroute or drop.
					if !e.misroute(u, qi, idx, t, cycle, st) {
						idx++
					}
					continue
				}
				// A fault-displaced packet must not scan from the lowest
				// candidate: first-free would deterministically re-take the
				// dimension its last misroute came over, orbiting it back
				// into the dead minimal cut forever. Its scan starts at a
				// hashed candidate instead (node-local, worker-safe).
				hashed = pol == PolicyFirstFree && pkt.Misrouted() && nint+bits.OnesCount64(union) > 1
			}
			// First-free takes the first admissible candidate it meets (in,
			// p); the other policies collect them all and choose below.
			first := pol == PolicyFirstFree && !hashed
			in, p := -1, -1
			tc, dyn := core.QueueClass(0), false
			var ai uint8
			var ap, fail uint64
			failOK := true // every failure was a full buffer: the wait mask may be cached
			for i := 0; i < nint; i++ {
				if tc := int(pm.IntClass[i]); tc == c || e.effectiveFree(qi0+tc) >= 1 {
					ai |= 1 << uint(i)
					if first {
						in = i
						break
					}
				} else {
					failOK = false
				}
			}
			if in < 0 {
				for mk := union; mk != 0; mk &= mk - 1 {
					port := bits.TrailingZeros64(mk)
					tc, dyn = pm.Class(port)
					b := int(tc)
					if dyn {
						b = e.classes
					}
					b += port * e.bufClasses
					if e.outFull[obase+b] != 0 {
						fail |= 1 << uint(b&63)
						continue
					}
					if credit > 0 && !dyn && e.effectiveFree(int(e.nbr[lbase+port])*e.classes+int(tc)) < int32(credit) {
						failOK = false
						continue
					}
					ap |= 1 << uint(port)
					if first {
						p = port
						break
					}
				}
			}
			if ai == 0 && ap == 0 {
				if wf {
					if !failOK {
						fail = 0 // uncacheable failure mode; rescan next cycle
					}
					e.qwait[pi] = fail
				}
				if on {
					st.obs.Inc(obs.COutputStalls)
				}
				idx++
				continue
			}
			if !first {
				if hashed {
					in, p = rotFirst(ai, ap, nint, union, int(misrouteHash(cycle, pkt.ID, pkt.HopCount())%uint32(nint+bits.OnesCount64(union))))
				} else {
					in, p = choose(pol, &e.rngs[u], ai, ap, pm.Dyn)
				}
				if in < 0 {
					tc, dyn = pm.Class(p)
				}
			}
			if in >= 0 {
				tc := pm.IntClass[in]
				pkt.Work = pm.IntWork[in]
				st.moves++
				if int(tc) == c {
					idx++ // in-place step: the bookkeeping advances, the packet stays
					continue
				}
				// The record is edited in place and its reference pushed to
				// the target queue, then dropped here.
				pkt.Class, pkt.MinFree = tc, 1
				if l := e.qPush(u, qi0+int(tc), e.qref[pi]); l > st.maxQueue {
					st.maxQueue = l
				}
				e.qDrop(u, qi, idx)
				continue
			}
			credited := credit > 0 && !dyn
			if credited {
				// Reserve the slot the admissibility check found free.
				e.inbound[int(e.nbr[lbase+p])*e.classes+int(tc)]++
			}
			r := e.qref[pi]
			e.qDrop(u, qi, idx)
			e.send(u, p, tc, dyn, r, pkt, pm, credited, st)
		}
	}
}

// rotFirst returns the first admissible candidate at or after position
// start of the candidate order, wrapping, as choose returns it: positions
// below nint are the internal moves (admissible in ai), the rest the ports
// of union in ascending order (admissible in ap).
func rotFirst(ai uint8, ap uint64, nint int, union uint64, start int) (int, int) {
	if start < nint {
		if hi := ai >> uint(start); hi != 0 {
			return start + bits.TrailingZeros8(hi), 0
		}
		if ap != 0 {
			return -1, bits.TrailingZeros64(ap)
		}
		return bits.TrailingZeros8(ai), 0
	}
	lower, upper := splitAt(union, start-nint)
	if m := ap & upper; m != 0 {
		return -1, bits.TrailingZeros64(m)
	}
	if ai != 0 {
		return bits.TrailingZeros8(ai), 0
	}
	return -1, bits.TrailingZeros64(ap & lower)
}

// send commits packet r (record pkt) of node u to the output buffer of port
// p, taking the move pm states through it, into class tc (dyn: the dynamic
// move); credited marks a credited static move, whose slot at the far queue
// is reserved. The caller has taken the reference out of the queue or input
// buffer that held it.
func (e *Engine) send(u int32, p int, tc core.QueueClass, dyn bool, r int32, pkt *core.Packet, pm *core.PortMasks, credited bool, st *cycleStats) {
	bc := int(tc)
	pkt.Class, pkt.Work, pkt.MinFree = tc, pm.Work, 1
	if dyn {
		bc, pkt.Work = e.classes, pm.DynWork
		st.dynamicMoves++
	}
	if credited {
		pkt.MinFree = 0 // marks the reservation for the drain
	}
	// The hop is counted at commit time rather than at transfer: a packet is
	// never observed while it waits in the link buffers, so charging the
	// traversal early is equivalent and the link phase never touches a
	// record.
	pkt.Hops++
	link := int(u)*e.ports + p
	si := link*e.bufClasses + bc
	e.outRef[si] = r
	e.outFull[si] = e.arrivalCode(link, pkt)
	if e.waitFast {
		e.outMask[u] |= 1 << uint((p*e.bufClasses+bc)&63)
	}
	e.outLink[link]++
	e.outCount[u]++
	st.moves++
}

// workerPhaseB runs node phase (b) over the live nodes of one shard.
func (e *Engine) workerPhaseB(w int) {
	lo, hi := e.shard(w)
	if lo >= hi {
		return
	}
	st := &e.statsBuf[w]
	sc := &e.scratch[w]
	t := &e.tabs[w]
	cycle, win := e.rs.m.Cycles, e.rs.win
	base := lo >> 6
	for wi, word := range e.liveBits[base : (hi+63)>>6] {
		inj := e.injFull[base+wi]
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			u := int32((base+wi)*64 + b)
			if full := inj>>uint(b)&1 != 0; full || e.inCount[u] != 0 {
				e.nodePhaseB(u, full, cycle, win, st, sc, t)
			}
		}
	}
}

// nodePhaseB drains u's input buffers and injection queue (inj: it holds a
// packet) into the central queues under a rotating fair order, consuming
// packets that reached their destination directly from the buffer. nextDrain
// finds the occupied slots eight flags at a time, and the occupancy counters
// end the scan as soon as every occupied buffer has been considered. The
// packets are records of t, u's shard table.
func (e *Engine) nodePhaseB(u int32, inj bool, cycle int64, win runWindow, st *cycleStats, sc *workerScratch, t *pktTable) {
	deg := int(e.inDeg[u])
	base := e.inBase[u]
	flags := e.inFull[base : base+int32(deg)]
	ct := e.cfg.CutThrough
	total := deg + 1 // +1 for the injection queue
	left := int(e.inCount[u])
	if inj {
		left++
	}
	// The rotation advances once per cycle whether or not the node is
	// scanned; deriving it from the cycle keeps idle nodes skippable
	// without a per-node counter, and the per-worker cache makes the
	// division once-per-cycle on regular (uniform-degree) topologies.
	if sc.rotCycle != cycle || sc.rotTotal != total {
		sc.rotCycle, sc.rotTotal = cycle, total
		sc.rotStart = int(cycle % int64(total))
	}
	start := sc.rotStart
	for i := 0; left > 0; i++ {
		if i = nextDrain(flags, inj, start, i); i >= total {
			break
		}
		left--
		s := start + i
		if s >= total {
			s -= total
		}
		if s == deg {
			// Injection queue. Latency is measured from *network entry*
			// (leaving the injection queue): time spent waiting in the
			// injection queue is charged to the effective injection rate,
			// not to latency, matching Section 7's bounded L_max under
			// saturation.
			r, c := e.injRef[u], e.injClass[u]
			if c == injByRecord {
				c = t.pkts[r].Class
			}
			qi := e.queueIndex(u, c)
			if e.effectiveFree(qi) >= 1 {
				t.pkts[r].InjectedAt = cycle
				if l := e.qPush(u, qi, r); l > st.maxQueue {
					st.maxQueue = l
				}
				e.injFull[u>>6] &^= 1 << (uint(u) & 63)
				st.moves++
			}
			continue
		}
		si := base + int32(s)
		r := e.inRef[si]
		if code := flags[s]; code != arriveByRecord && !ct {
			// The arrival code names the queue, so the record is not read.
			if qi := int(u)*e.classes + int(code) - 1; e.qlen[qi] < int32(e.queueCap) {
				if l := e.qPush(u, qi, r); l > st.maxQueue {
					st.maxQueue = l
				}
				e.inFree(u, si)
				st.moves++
			}
			continue
		}
		pkt := &t.pkts[r]
		if ct && pkt.Dst != u && pkt.MinFree != 0 && e.cutThrough(u, si, pkt, st, &sc.pm) {
			continue
		}
		if pkt.Dst == u {
			if pkt.MinFree == 0 {
				// Release the credit reservation of a packet consumed
				// straight from the input buffer.
				e.inbound[e.queueIndex(u, pkt.Class)]--
			}
			e.deliver(t, r, cycle, win, st)
			e.inFree(u, si)
			continue
		}
		qi := e.queueIndex(u, pkt.Class)
		if pkt.MinFree == 0 {
			// Credited packet: its slot was reserved at claim time, so the
			// push cannot fail; release the reservation.
			pkt.MinFree = 1
			e.inbound[qi]--
		} else if e.qlen[qi] == int32(e.queueCap) {
			continue
		}
		if l := e.qPush(u, qi, r); l > st.maxQueue {
			st.maxQueue = l
		}
		e.inFree(u, si)
		st.moves++
	}
}

// arriveByRecord is the arrival code of a packet that phase (b) must read
// the record of to drain: one that is delivered at the far end, a credited
// packet (MinFree 0), or one whose class does not fit the code. Any other packet's code is its queue class plus one,
// which is all phase (b) needs to queue it; phase (a) at the sender, where
// the record was just written, sets it.
const arriveByRecord = 255

// arrivalCode returns the buffer flag of pkt, committed to link l.
func (e *Engine) arrivalCode(l int, pkt *core.Packet) uint8 {
	if pkt.MinFree != 1 || pkt.Dst == e.nbr[l] || int(pkt.Class) >= arriveByRecord-1 {
		return arriveByRecord
	}
	return uint8(pkt.Class) + 1
}

// inFree marks u's input buffer si empty, at the receiver and in the
// sender's downstream-full mirror.
func (e *Engine) inFree(u, si int32) {
	e.inFull[si] = 0
	j := si / int32(e.bufClasses)
	e.dnFull[e.inSrc[j]+si-j*int32(e.bufClasses)] = 0
	e.inCount[u]--
}

// nextFull returns the first index >= i of a set flag in f, or len(f). It
// loads eight flags at a time and never reads outside f — the caller passes
// one node's flags, and a neighbor's may be mid-write on another worker — so
// a tail shorter than a word is read through the last eight bytes of f.
func nextFull(f []uint8, i int) int {
	n := len(f)
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(f[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	if i < n && n >= 8 {
		if x := binary.LittleEndian.Uint64(f[n-8:]) >> (uint(i+8-n) * 8); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
		return n
	}
	for ; i < n && f[i] == 0; i++ {
	}
	return i
}

// nextDrain returns the first position >= i of the phase (b) scan order that
// holds a packet, or len(flags)+1. Position i is slot (start+i) mod
// (len(flags)+1): in-buffers [start, deg), the injection queue, [0, start).
func nextDrain(flags []uint8, inj bool, start, i int) int {
	k := len(flags) - start // position of the injection queue
	if i < k {
		if s := nextFull(flags, start+i); s < len(flags) {
			return s - start
		}
		i = k
	}
	if i == k {
		if inj {
			return k
		}
		i++
	}
	return nextFull(flags[:start], i-k-1) + k + 1
}

// cutThrough attempts to forward pkt, the packet in input buffer si,
// straight to a free output buffer (virtual cut-through), editing its record
// only once a buffer is found. It must not be used for credited packets
// (their reservation is tied to the queue they bypass). Internal
// transitions and credited (bubble-reserved) moves go through the queues;
// every other candidate may cut through, lowest port first — the packet
// only ever occupies buffers that were free, so the deadlock analysis is
// unchanged and waiting strictly shrinks. Reports whether the packet moved.
func (e *Engine) cutThrough(u int32, si int32, pkt *core.Packet, st *cycleStats, pm *core.PortMasks) bool {
	plain := e.algo.PortMask(u, pkt.Class, pkt.Work, pkt.Dst, pm)
	m := pm.StaticUnion() | pm.Dyn
	if !plain && pm.Credit > 0 {
		m = pm.Dyn
	}
	if e.flt != nil {
		m &= e.flt.livePorts[u]
	}
	lbase := int(u) * e.ports
	for ; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		tc, dyn := pm.Class(p)
		bc := int(tc)
		if dyn {
			bc = e.classes
		}
		if e.outFull[(lbase+p)*e.bufClasses+bc] != 0 {
			continue
		}
		e.send(u, p, tc, dyn, e.inRef[si], pkt, pm, false, st)
		e.inFree(u, si)
		if e.obsOn {
			st.obs.Inc(obs.CCutThrough)
		}
		return true
	}
	return false
}

// workerLink runs the link phase over the live nodes of one shard, then
// retires nodes that no longer hold any packet from the worklist.
func (e *Engine) workerLink(w int) {
	lo, hi := e.shard(w)
	if lo >= hi {
		return
	}
	st := &e.statsBuf[w]
	base := lo >> 6
	for wi := base; wi < (hi+63)>>6; wi++ {
		inj := e.injFull[wi]
		for word := e.liveBits[wi]; word != 0; word &= word - 1 {
			b := uint(bits.TrailingZeros64(word))
			u := int32(wi*64) + int32(b)
			if e.outCount[u] != 0 {
				e.linkNode(u, w, st)
			}
			if e.qTotal[u] == 0 && e.inCount[u] == 0 && e.outCount[u] == 0 && inj>>b&1 == 0 {
				e.liveBits[wi] &^= 1 << b
			}
		}
	}
}

// linkNode transfers at most one packet per direction over each of u's
// occupied outgoing links, into empty input buffers, rotating over the
// buffer classes for fairness. Only the sender's own flags are read: an
// output buffer is ready when outFull is set and dnFull is clear.
func (e *Engine) linkNode(u int32, w int, st *cycleStats) {
	lbase := int(u) * e.ports
	if e.waitFast {
		// outMask and the packed dnFull flags share one bit layout, so one
		// AND-NOT yields the ready buffers and the scan visits only ports
		// that hold one; a node whose every output faces a full input is done.
		obase := lbase * e.bufClasses
		ready := e.outMask[u] &^ packFlags(e.dnFull[obase:obase+e.ports*e.bufClasses])
		cm := uint64(1)<<uint(e.bufClasses) - 1
		for ready != 0 {
			p := int(e.slotPort[bits.TrailingZeros64(ready)])
			sh := uint(p * e.bufClasses)
			bc := pickClass(ready>>sh&cm, e.linkRR[lbase+p])
			ready &^= cm << sh
			e.linkMove(u, lbase+p, p, bc, w, st)
		}
		return
	}
	rem := int(e.outCount[u])
	for p := 0; p < e.ports && rem > 0; p++ {
		l := lbase + p
		if e.outLink[l] == 0 {
			continue
		}
		rem -= int(e.outLink[l])
		bc := int(e.linkRR[l])
		for i := 0; i < e.bufClasses; i++ {
			if si := l*e.bufClasses + bc; e.outFull[si] != 0 && e.dnFull[si] == 0 {
				e.linkMove(u, l, p, bc, w, st)
				break // one packet per link per cycle
			}
			if bc++; bc == e.bufClasses {
				bc = 0
			}
		}
	}
}

// packFlags packs up to 64 flag bytes (each 0 or 1) into a bitset, eight
// per multiply. Like nextFull it never reads outside f.
func packFlags(f []uint8) uint64 {
	const gather = 0x0102040810204080 // byte i's low bit -> bit 56+i
	n, m := len(f), uint64(0)
	if n < 8 {
		for i, b := range f {
			m |= uint64(b) << uint(i)
		}
		return m
	}
	for i := 0; i+8 <= n; i += 8 {
		m |= binary.LittleEndian.Uint64(f[i:]) * gather >> 56 << uint(i)
	}
	return m | binary.LittleEndian.Uint64(f[n-8:])*gather>>56<<uint(n-8)
}

// pickClass returns the first buffer class at or after rr, cyclically, whose
// bit is set in ready (one link's ready buffers; not zero).
func pickClass(ready uint64, rr uint32) int {
	if hi := ready >> rr; hi != 0 {
		return int(rr) + bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(ready)
}

// rrNext advances a link's class rotation: one step per transfer from its
// old start, not from the winner.
func rrNext(rr uint32, n int) uint32 {
	if rr++; int(rr) == n {
		return 0
	}
	return rr
}

// linkMove transfers the packet in output buffer bc of the directed link l
// (port p of node u) into its far-end input buffer, which is known empty.
// When the destination lives on the same shard, the transfer moves the
// reference and records the arrival on its worklist; otherwise the packet's
// record is posted to the owner's mail lane for the fold phase and its
// reference given back. Hops was already charged at commit time.
func (e *Engine) linkMove(u int32, l, p, bc, w int, st *cycleStats) {
	si := l*e.bufClasses + bc
	di := e.linkDst[l] + int32(bc)
	code := e.outFull[si]
	e.dnFull[si] = 1
	e.outFull[si] = 0
	if e.waitFast {
		e.outMask[u] &^= 1 << uint((p*e.bufClasses+bc)&63)
	}
	e.outLink[l]--
	e.outCount[u]--
	e.linkRR[l] = rrNext(e.linkRR[l], e.bufClasses)
	st.moves++
	if e.obsOn {
		st.obs.Inc(obs.CLinkTransfers)
	}
	v := e.nbr[l]
	if dw := e.owner[v]; int(dw) == w {
		e.inRef[di] = e.outRef[si]
		e.inFull[di] = code
		e.inCount[v]++
		e.setLive(v)
	} else {
		lane := &e.mail[w*e.workers+int(dw)]
		t := &e.tabs[w]
		lane.arr = append(lane.arr, arrival{pkt: t.pkts[e.outRef[si]], v: v, di: di, code: code})
		t.release(e.outRef[si])
		if e.obsOn {
			st.obs.Inc(obs.CMailPosts)
		}
	}
}
