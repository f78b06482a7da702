package traffic

import (
	"io"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/xrand"
)

// StaticSource is the paper's static injection model: every node has a
// fixed number of packets to inject (1 or n in Section 7). A node attempts
// every cycle until its allotment has entered the network.
type StaticSource struct {
	pattern   Pattern
	remaining []int32
	left      []uint64 // bit u: remaining[u] > 0
	rngs      []xrand.RNG
}

// NewStaticSource builds a static source of perNode packets at each of the
// nodes, destined per pattern. The seed feeds the per-node generators used
// by random patterns.
func NewStaticSource(pattern Pattern, nodes, perNode int, seed int64) *StaticSource {
	s := &StaticSource{
		pattern:   pattern,
		remaining: make([]int32, nodes),
		left:      make([]uint64, (nodes+63)/64),
		rngs:      make([]xrand.RNG, nodes),
	}
	for u := range s.remaining {
		s.remaining[u] = int32(perNode)
		s.rngs[u] = xrand.New(seed, int32(u))
		if perNode > 0 {
			s.left[u>>6] |= 1 << (uint(u) & 63)
		}
	}
	return s
}

// Wants reports whether the node still has packets to inject.
func (s *StaticSource) Wants(node int32, _ int64) bool { return s.remaining[node] > 0 }

// Take consumes one packet from the node's allotment.
func (s *StaticSource) Take(node int32, _ int64) int32 {
	if s.remaining[node]--; s.remaining[node] == 0 {
		s.left[node>>6] &^= 1 << (uint(node) & 63)
	}
	return s.pattern.Dest(node, &s.rngs[node])
}

// Exhausted reports whether the node's allotment is used up.
func (s *StaticSource) Exhausted(node int32) bool { return s.remaining[node] <= 0 }

// TotalRemaining returns the packets not yet injected (for tests).
func (s *StaticSource) TotalRemaining() int {
	t := 0
	for _, r := range s.remaining {
		t += int(r)
	}
	return t
}

// BernoulliSource is the paper's dynamic injection model: every cycle each
// node attempts to inject with probability Lambda; the destination is drawn
// from the pattern at commit time.
type BernoulliSource struct {
	pattern Pattern
	lambda  float64
	rngs    []xrand.RNG
}

// NewBernoulliSource builds a dynamic source with rate lambda in [0,1].
func NewBernoulliSource(pattern Pattern, nodes int, lambda float64, seed int64) *BernoulliSource {
	s := &BernoulliSource{
		pattern: pattern,
		lambda:  lambda,
		rngs:    make([]xrand.RNG, nodes),
	}
	for u := range s.rngs {
		s.rngs[u] = xrand.New(seed, int32(u))
	}
	return s
}

// Wants flips the node's Bernoulli coin for this cycle. Lambda = 1 attempts
// every cycle without consuming generator state, so the paper's λ=1 runs
// stay aligned across configurations.
func (s *BernoulliSource) Wants(node int32, _ int64) bool {
	if s.lambda >= 1 {
		return true
	}
	return s.rngs[node].Coin(s.lambda)
}

// Take draws the destination of the packet being injected.
func (s *BernoulliSource) Take(node int32, _ int64) int32 {
	return s.pattern.Dest(node, &s.rngs[node])
}

// Exhausted always reports false: dynamic sources never stop.
func (s *BernoulliSource) Exhausted(int32) bool { return false }

// RecordingSource wraps a source and records every taken (src, dst) pair;
// tests use it to check conservation (everything injected is delivered).
//
// By default the record grows without bound — fine for the bounded static
// runs the conservation tests drive, but a dynamic source feeding a long run
// would accumulate one entry per injection for the whole run. Set Cap to
// bound the memory: the record then keeps only the most recent Cap entries
// (a ring), and TotalTaken still counts every injection.
//
// Set W to also stream the record as trace JSONL (see trace.go for the
// schema) that a TraceSource can replay. Writes are buffered internally;
// call Flush when the run ends. On the batched injection path (the wrapper
// implements sim.BatchSource, delegating to the inner source or emulating
// Wants/Take per node) blocked-attempt counts are recorded too, so a replay
// reproduces Attempts exactly; the scalar path records successes only,
// because a count of blocked nodes cannot be attributed under per-node
// Wants/Take without reordering the stream.
type RecordingSource struct {
	Inner interface {
		Wants(node int32, cycle int64) bool
		Take(node int32, cycle int64) int32
		Exhausted(node int32) bool
	}
	// Cap bounds the record to the most recent Cap entries (0 = unbounded).
	// Set it before the first Take; changing it mid-run is not supported.
	Cap int
	// W, when non-nil, receives the record as trace JSONL. Set it before
	// the run starts.
	W io.Writer

	mu    sync.Mutex
	total int64
	next  int // ring write position, used once len(Taken) == Cap
	Taken []TakenPacket
	wbuf  []byte
	werr  error
}

// TakenPacket is one recorded injection.
type TakenPacket struct {
	Src, Dst int32
	Cycle    int64
}

func (r *RecordingSource) Wants(node int32, cycle int64) bool { return r.Inner.Wants(node, cycle) }

func (r *RecordingSource) Take(node int32, cycle int64) int32 {
	dst := r.Inner.Take(node, cycle)
	r.mu.Lock()
	r.record(node, dst, cycle)
	r.mu.Unlock()
	return dst
}

// record appends one injection to the ring and, when streaming, to the
// write buffer. Caller holds mu.
func (r *RecordingSource) record(node, dst int32, cycle int64) {
	r.total++
	tp := TakenPacket{Src: node, Dst: dst, Cycle: cycle}
	if r.Cap > 0 && len(r.Taken) >= r.Cap {
		r.Taken[r.next] = tp
		r.next++
		if r.next == r.Cap {
			r.next = 0
		}
	} else {
		r.Taken = append(r.Taken, tp)
	}
	if r.W != nil {
		r.wbuf = append(r.wbuf, `{"c":`...)
		r.wbuf = strconv.AppendInt(r.wbuf, cycle, 10)
		r.wbuf = append(r.wbuf, `,"s":`...)
		r.wbuf = strconv.AppendInt(r.wbuf, int64(node), 10)
		r.wbuf = append(r.wbuf, `,"d":`...)
		r.wbuf = strconv.AppendInt(r.wbuf, int64(dst), 10)
		r.wbuf = append(r.wbuf, '}', '\n')
		r.maybeFlush()
	}
}

// maybeFlush writes the buffer out once it is large enough that the write
// amortizes. Caller holds mu.
func (r *RecordingSource) maybeFlush() {
	if len(r.wbuf) < 1<<15 {
		return
	}
	r.flushLocked()
}

func (r *RecordingSource) flushLocked() {
	if len(r.wbuf) == 0 || r.W == nil {
		return
	}
	if _, err := r.W.Write(r.wbuf); err != nil && r.werr == nil {
		r.werr = err
	}
	r.wbuf = r.wbuf[:0]
}

// Flush writes out any buffered trace records and returns the first write
// error, if any. Call it when the run ends.
func (r *RecordingSource) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	return r.werr
}

// FillCycle implements sim.BatchSource: the wrapped source's cycle is
// produced (delegated when the inner source is itself a BatchSource,
// emulated per node otherwise) and recorded, including the shard's blocked
// count so a replay reproduces Attempts exactly.
func (r *RecordingSource) FillCycle(cycle int64, lo, hi int32, full []uint64, out []core.PendingInject) (n, blocked int) {
	if bs, ok := r.Inner.(batchFiller); ok {
		n, blocked = bs.FillCycle(cycle, lo, hi, full, out)
	} else {
		for u := lo; u < hi; u++ {
			if !r.Inner.Wants(u, cycle) {
				continue
			}
			if full[u>>6]&(1<<(uint(u)&63)) != 0 {
				blocked++
				continue
			}
			out[n] = core.PendingInject{Node: u, Dst: r.Inner.Take(u, cycle)}
			n++
		}
	}
	r.mu.Lock()
	for i := range out[:n] {
		r.record(out[i].Node, out[i].Dst, cycle)
	}
	if blocked > 0 && r.W != nil {
		r.wbuf = append(r.wbuf, `{"c":`...)
		r.wbuf = strconv.AppendInt(r.wbuf, cycle, 10)
		r.wbuf = append(r.wbuf, `,"b":`...)
		r.wbuf = strconv.AppendInt(r.wbuf, int64(blocked), 10)
		r.wbuf = append(r.wbuf, '}', '\n')
		r.maybeFlush()
	}
	r.mu.Unlock()
	return n, blocked
}

func (r *RecordingSource) Exhausted(node int32) bool { return r.Inner.Exhausted(node) }

// TotalTaken returns the number of injections ever recorded, including
// entries a Cap ring has since overwritten.
func (r *RecordingSource) TotalTaken() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Recent returns the recorded entries in oldest-first order, undoing the
// ring rotation when Cap is set. The slice is a copy.
func (r *RecordingSource) Recent() []TakenPacket {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TakenPacket, 0, len(r.Taken))
	if r.Cap > 0 && len(r.Taken) >= r.Cap {
		out = append(out, r.Taken[r.next:]...)
		out = append(out, r.Taken[:r.next]...)
		return out
	}
	return append(out, r.Taken...)
}
