package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"repro/internal/core"
)

// Trace JSONL schema, written by RecordingSource when streaming and read
// back by TraceSource:
//
//	{"c":<cycle>,"s":<src>,"d":<dst>}   one successful injection
//	{"c":<cycle>,"b":<count>}           blocked attempts in <cycle> (one
//	                                    record per engine shard; a reader
//	                                    sums them per cycle)
//
// Records are sorted by cycle (the engines' phase barriers guarantee this
// even when several workers record concurrently); node order within a cycle
// is unconstrained. Lines not starting with {"c": are skipped, so a trace
// can share a stream with obs JSONL metric lines.

// TraceSource replays a recorded trace: node u attempts at cycle c exactly
// when the trace holds a success record (c, u, dst), re-injecting the
// recorded destination. Replayed against the same configuration that
// produced the trace, the run is bit-identical to the original. Decoding is
// incremental (the file is never loaded whole) and allocation-free in
// steady state.
//
// On the batched path the recorded blocked counts are replayed too, so
// Attempts matches the original run exactly. The scalar path replays
// successes only (a per-node Wants cannot express a count). If replay
// diverges from the recording — a different config can fill an injection
// queue the original found free — the attempt is counted as blocked and
// retried each cycle until the queue drains.
type TraceSource struct {
	mu  sync.Mutex
	rd  *bufio.Reader
	cl  io.Closer // closed at EOF when the reader is also a Closer
	eof bool
	err error

	// One-record pushback: a decoded record that cannot be placed yet
	// (future cycle, or its node's slot is still occupied after divergence).
	pb traceRec

	// Per-node pending slot: the next success record for the node.
	// slotCycle[u] < 0 means empty; pend mirrors occupancy as a bitmap.
	slotCycle []int64
	slotDst   []int32
	pend      []uint64
	pendN     int

	blkPending int   // blocked count read but not yet granted
	grantCycle int64 // cycle whose first FillCycle call claimed blkPending
}

// traceRec is one decoded trace record held in the pushback slot.
type traceRec struct {
	valid bool
	isBlk bool
	cycle int64
	node  int32
	dst   int32
	count int
}

// NewTraceSource builds a replay source over r for a network of nodes
// nodes. If r is an io.Closer (e.g. an *os.File), it is closed when the
// trace is fully consumed.
func NewTraceSource(r io.Reader, nodes int) *TraceSource {
	s := &TraceSource{
		rd:         bufio.NewReaderSize(r, 1<<16),
		slotCycle:  make([]int64, nodes),
		slotDst:    make([]int32, nodes),
		pend:       make([]uint64, (nodes+63)/64),
		grantCycle: -1,
	}
	if c, ok := r.(io.Closer); ok {
		s.cl = c
	}
	for u := range s.slotCycle {
		s.slotCycle[u] = -1
	}
	return s
}

// Err returns the first decode or read error, if any. io.EOF is not an
// error: the trace just ended.
func (s *TraceSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// fail records the first error and stops further reading.
func (s *TraceSource) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.eof = true
	if s.cl != nil {
		s.cl.Close()
		s.cl = nil
	}
}

// readTo decodes records up to and including cycle into the slots. Caller
// holds mu.
func (s *TraceSource) readTo(cycle int64) {
	for {
		if s.pb.valid {
			if s.pb.cycle > cycle {
				return
			}
			if s.pb.isBlk {
				s.blkPending += s.pb.count
				s.pb.valid = false
				continue
			}
			u := s.pb.node
			if s.slotCycle[u] >= 0 {
				return // divergence stall: node still has an unconsumed record
			}
			s.slotCycle[u] = s.pb.cycle
			s.slotDst[u] = s.pb.dst
			s.pend[u>>6] |= 1 << (uint(u) & 63)
			s.pendN++
			s.pb.valid = false
			continue
		}
		if s.eof {
			return
		}
		line, err := s.rd.ReadSlice('\n')
		if len(line) > 0 {
			if ok, perr := s.parseLine(line); perr != nil {
				s.fail(perr)
				return
			} else if ok {
				continue // parsed into pb; place it on the next pass
			}
		}
		if err != nil {
			if err != io.EOF {
				s.fail(err)
				return
			}
			s.eof = true
			if s.cl != nil {
				s.cl.Close()
				s.cl = nil
			}
			return
		}
	}
}

// parseLine decodes one trace line into the pushback record. Lines that are
// not trace records (obs metrics, blanks) are skipped with ok=false.
func (s *TraceSource) parseLine(line []byte) (ok bool, err error) {
	const pfx = `{"c":`
	if len(line) < len(pfx)+1 || string(line[:len(pfx)]) != pfx {
		return false, nil
	}
	i := len(pfx)
	cyc, i, perr := parseInt(line, i)
	if perr != nil || i+4 >= len(line) || line[i] != ',' || line[i+1] != '"' || line[i+3] != '"' || line[i+4] != ':' {
		return false, fmt.Errorf("traffic: bad trace line %q", line)
	}
	key := line[i+2]
	v1, i, perr := parseInt(line, i+5)
	if perr != nil {
		return false, fmt.Errorf("traffic: bad trace line %q", line)
	}
	switch key {
	case 'b':
		// Each node attempts at most once per cycle, so no record of a
		// cycle's blocked attempts counts more than the network's nodes.
		if v1 > int64(len(s.slotCycle)) {
			return false, fmt.Errorf("traffic: blocked count out of range in %q", line)
		}
		s.pb = traceRec{valid: true, isBlk: true, cycle: cyc, count: int(v1)}
	case 's':
		if i+4 >= len(line) || line[i] != ',' || string(line[i+1:i+5]) != `"d":` {
			return false, fmt.Errorf("traffic: bad trace line %q", line)
		}
		v2, _, perr := parseInt(line, i+5)
		if perr != nil {
			return false, fmt.Errorf("traffic: bad trace line %q", line)
		}
		if int(v1) >= len(s.slotCycle) || int(v2) >= len(s.slotCycle) || v1 < 0 || v2 < 0 {
			return false, fmt.Errorf("traffic: trace node out of range in %q", line)
		}
		s.pb = traceRec{valid: true, cycle: cyc, node: int32(v1), dst: int32(v2)}
	default:
		return false, fmt.Errorf("traffic: bad trace line %q", line)
	}
	return true, nil
}

// parseInt reads a non-negative decimal starting at line[i], refusing one
// that does not fit an int64.
func parseInt(line []byte, i int) (int64, int, error) {
	start := i
	var v int64
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		if v > (math.MaxInt64-9)/10 {
			return 0, i, fmt.Errorf("traffic: number out of range")
		}
		v = v*10 + int64(line[i]-'0')
		i++
	}
	if i == start {
		return 0, i, fmt.Errorf("traffic: expected digit")
	}
	return v, i, nil
}

// Wants reports whether the trace injects at this node this cycle (or holds
// an overdue record from a diverged earlier cycle).
func (s *TraceSource) Wants(node int32, cycle int64) bool {
	s.mu.Lock()
	s.readTo(cycle)
	w := s.slotCycle[node] >= 0 && s.slotCycle[node] <= cycle
	s.mu.Unlock()
	return w
}

// Take consumes the node's pending record and returns its destination.
func (s *TraceSource) Take(node int32, _ int64) int32 {
	s.mu.Lock()
	dst := s.slotDst[node]
	s.slotCycle[node] = -1
	s.pend[node>>6] &^= 1 << (uint(node) & 63)
	s.pendN--
	s.mu.Unlock()
	return dst
}

// Exhausted reports whether the whole trace has been consumed. It cannot
// answer per node without reading ahead, so it flips for all nodes at once
// when the reader hits EOF with no records pending.
func (s *TraceSource) Exhausted(int32) bool {
	s.mu.Lock()
	ex := s.eof && s.pendN == 0 && !s.pb.valid
	s.mu.Unlock()
	return ex
}

// FillCycle implements sim.BatchSource. The first shard of each cycle also
// claims the recorded blocked count, so merged Attempts match the original
// run regardless of worker count (sums commute across shards).
func (s *TraceSource) FillCycle(cycle int64, lo, hi int32, full []uint64, out []core.PendingInject) (n, blocked int) {
	s.mu.Lock()
	s.readTo(cycle)
	if s.grantCycle != cycle {
		s.grantCycle = cycle
		blocked += s.blkPending
		s.blkPending = 0
	}
	for base := lo; base < hi; base += 64 {
		wi := base >> 6
		mask := ^uint64(0)
		if rem := hi - base; rem < 64 {
			mask = (uint64(1) << uint(rem)) - 1
		}
		for w := s.pend[wi] & mask; w != 0; w &= w - 1 {
			u := base + int32(bits.TrailingZeros64(w))
			if s.slotCycle[u] > cycle {
				continue
			}
			if full[u>>6]&(1<<(uint(u)&63)) != 0 {
				blocked++ // divergence from the recorded run; retry next cycle
				continue
			}
			out[n] = core.PendingInject{Node: u, Dst: s.slotDst[u]}
			n++
			s.slotCycle[u] = -1
			s.pend[wi] &^= 1 << (uint(u) & 63)
			s.pendN--
		}
	}
	s.mu.Unlock()
	return n, blocked
}
