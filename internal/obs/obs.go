// Package obs is the engine observability core: a fixed set of counters,
// gauges, and fixed-bucket histograms describing what the simulators do
// cycle by cycle — injection backpressure, central-queue occupancy, link
// utilization, output-buffer stalls, wait-mask parking, mail-lane traffic,
// and per-packet age at delivery.
//
// The design keeps the engines' hot loop allocation-free and bit-
// deterministic under parallel execution:
//
//   - every worker accumulates into its own Shard (plain int64 arrays, no
//     atomics, no maps), so instrumentation in the phase bodies costs an
//     increment behind one predictable branch;
//   - once per cycle, at the barrier where the engine already folds its
//     per-worker statistics, the shards are folded into the Core's
//     cumulative Snapshot in worker order — every fold is a commutative
//     sum, so the merged values are independent of execution timing;
//   - Snapshot is a fixed-size value type (arrays, not maps or slices), so
//     publishing one is a memcpy and reading one never races with the run.
//
// Cross-worker determinism: for a fixed seed, every metric is bit-identical
// regardless of Config.Workers except CMailPosts and GLiveNodes, which
// describe the parallel machinery itself (packets cross shard boundaries
// only when shards exist, and a mail-delivered arrival marks its node live
// one phase later than a same-shard arrival). Snapshot.Canonical zeroes
// those two for cross-worker-count comparisons.
package obs

import (
	"math/bits"
	"sync"
)

// CounterID names one monotonically increasing counter.
type CounterID uint8

// The counters. All are cumulative over the run.
const (
	// CInjAttempts counts injection attempts (every cycle, not just the
	// measurement window — contrast Metrics.Attempts).
	CInjAttempts CounterID = iota
	// CInjBackpressure counts attempts refused because the node's injection
	// queue was still occupied: the saturation signal of Section 7.1.
	CInjBackpressure
	// CInjected counts packets that entered an injection queue.
	CInjected
	// CDelivered counts packets consumed at their destination.
	CDelivered
	// CMoves counts packet movements (progress events).
	CMoves
	// CDynamicMoves counts movements over dynamic links.
	CDynamicMoves
	// CLinkTransfers counts packets moved across a physical link (the link
	// utilization numerator; each directed link moves at most one per cycle).
	CLinkTransfers
	// COutputStalls counts phase (a) scans that left a packet in place
	// because no admissible move had a free output buffer.
	COutputStalls
	// CWaitParked counts phase (a) scans skipped outright by the wait-mask
	// cache (the packet was parked on still-full buffers).
	CWaitParked
	// CMailPosts counts arrivals posted to a cross-shard mail lane. It is
	// zero with Workers <= 1 and depends on the shard layout; see Canonical.
	CMailPosts
	// CCutThrough counts packets forwarded input-buffer to output-buffer
	// without being stored in a central queue (virtual cut-through).
	CCutThrough
	// CMisrouted counts non-minimal moves taken because faults emptied the
	// packet's minimal candidate set (fault-degraded routing).
	CMisrouted
	// CFaultDrops counts packets dropped by fault handling: caught in a dead
	// node or link buffer, out of misroute hop budget, or unroutable at
	// injection.
	CFaultDrops
	// CInjRetries counts injections deferred by retry-with-backoff because
	// the node's queue pool was saturated under faults.
	CInjRetries

	// The phase-time counters accumulate wall-clock nanoseconds per engine
	// phase, measured at the cycle barrier. They are populated only under
	// Config.PhaseProf, are wall-clock (hence nondeterministic), and are
	// zeroed by Canonical. CPhaseMergeNs covers the sequential per-cycle
	// stats merge; CPhaseOtherNs is the remainder of the cycle (watchdog,
	// observer probes, fault replay).
	CPhaseInjectNs
	CPhaseANs
	CPhaseBNs
	CPhaseLinkNs
	CPhaseMergeNs
	CPhaseOtherNs

	NumCounters
)

var counterNames = [NumCounters]string{
	"inj_attempts", "inj_backpressure", "injected", "delivered",
	"moves", "dynamic_moves", "link_transfers", "output_stalls",
	"wait_parked", "mail_posts", "cutthrough_moves",
	"misrouted", "fault_drops", "inj_retries",
	"phase_inject_ns", "phase_a_ns", "phase_b_ns", "phase_link_ns",
	"phase_merge_ns", "phase_other_ns",
}

// String returns the counter's snake_case metric name.
func (c CounterID) String() string { return counterNames[c] }

// GaugeID names one instantaneous gauge, sampled at the end of each cycle.
type GaugeID uint8

// The gauges.
const (
	// GQueueOccupancy is the total number of packets currently held in
	// central queues, maintained incrementally at every push and drop.
	GQueueOccupancy GaugeID = iota
	// GInFlight is injected minus delivered: packets anywhere in the
	// network (queues, injection slots, link buffers).
	GInFlight
	// GMaxQueue is the maximum single-queue occupancy observed so far.
	GMaxQueue
	// GLiveNodes is the number of nodes on the engine's active worklist.
	// Like CMailPosts it depends on the worker count; see Canonical.
	GLiveNodes
	// GDeadLinks is the number of currently dead directed links.
	GDeadLinks
	// GDeadNodes is the number of currently dead nodes.
	GDeadNodes

	NumGauges
)

var gaugeNames = [NumGauges]string{
	"queue_occupancy", "in_flight", "max_queue", "live_nodes",
	"dead_links", "dead_nodes",
}

// String returns the gauge's snake_case metric name.
func (g GaugeID) String() string { return gaugeNames[g] }

// HistID names one fixed-bucket histogram.
type HistID uint8

// The histograms.
const (
	// HLatency is the per-packet age at delivery (cycles from network
	// entry), the distribution behind the paper's L_avg and L_max.
	HLatency HistID = iota
	// HQueueLen is the central-queue occupancy observed at each push: how
	// full queues run, the signal behind the paper's queue-size study.
	HQueueLen
	// HDropAge is the per-packet age (cycles since network entry) at the
	// moment fault handling dropped it.
	HDropAge

	NumHists
)

var histNames = [NumHists]string{"latency", "queue_len", "drop_age"}

// String returns the histogram's snake_case metric name.
func (h HistID) String() string { return histNames[h] }

// HistBuckets is the number of buckets per histogram. Bucket b holds values
// v with 2^b <= v < 2^(b+1) (bucket 0 additionally holds v <= 1, the last
// bucket holds everything larger): exponential buckets cover the whole
// latency range of a saturated large network in 16 slots.
const HistBuckets = 16

// BucketOf returns the bucket index for a value.
func BucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket b (the Prometheus
// "le" label); the last bucket is unbounded.
func BucketUpper(b int) int64 {
	if b >= HistBuckets-1 {
		return -1 // +Inf
	}
	return int64(1)<<(b+1) - 1
}

// Snapshot is one merged, self-consistent view of every metric, taken at a
// cycle boundary. It is a fixed-size value: copy it freely.
type Snapshot struct {
	// Cycle is the number of completed cycles when the snapshot was taken.
	Cycle    int64
	Counters [NumCounters]int64
	Gauges   [NumGauges]int64
	Hists    [NumHists][HistBuckets]int64
	// HistSum and HistCount are the running sum and count of each
	// histogram's observations (the Prometheus _sum and _count series).
	HistSum   [NumHists]int64
	HistCount [NumHists]int64
}

// Counter returns one counter's value.
func (s *Snapshot) Counter(c CounterID) int64 { return s.Counters[c] }

// Gauge returns one gauge's value.
func (s *Snapshot) Gauge(g GaugeID) int64 { return s.Gauges[g] }

// HistMean returns the mean of a histogram's observations (0 when empty).
func (s *Snapshot) HistMean(h HistID) float64 {
	if s.HistCount[h] == 0 {
		return 0
	}
	return float64(s.HistSum[h]) / float64(s.HistCount[h])
}

// Canonical returns the snapshot with the worker-layout-dependent metrics
// (CMailPosts, GLiveNodes) and the wall-clock phase-time counters zeroed.
// Two runs that differ only in Config.Workers (or Config.PhaseProf) produce
// bit-identical canonical snapshots.
func (s Snapshot) Canonical() Snapshot {
	s.Counters[CMailPosts] = 0
	for c := CPhaseInjectNs; c <= CPhaseOtherNs; c++ {
		s.Counters[c] = 0
	}
	s.Gauges[GLiveNodes] = 0
	return s
}

// Shard is one worker's metric accumulator for the current cycle. The
// engine owns one per worker (embedded in its per-worker stats block, so
// shards inherit the engine's false-sharing padding) and folds them into
// the Core at the cycle barrier.
type Shard struct {
	Counters   [NumCounters]int64
	GaugeDelta [NumGauges]int64 // applied as += at fold time
	Hists      [NumHists][HistBuckets]int64
	HistSum    [NumHists]int64
	HistCount  [NumHists]int64
}

// Inc adds one to a counter.
func (s *Shard) Inc(c CounterID) { s.Counters[c]++ }

// Add adds n to a counter.
func (s *Shard) Add(c CounterID, n int64) { s.Counters[c] += n }

// GaugeAdd accumulates a gauge delta (e.g. +1 per push, -1 per drop).
func (s *Shard) GaugeAdd(g GaugeID, d int64) { s.GaugeDelta[g] += d }

// Observe records one histogram observation.
func (s *Shard) Observe(h HistID, v int64) {
	s.Hists[h][BucketOf(v)]++
	s.HistSum[h] += v
	s.HistCount[h]++
}

// Core is the merge point: the cumulative Snapshot owned by the run loop,
// plus a mutex-guarded published copy for concurrent readers (the /metrics
// endpoint reads while the run executes).
type Core struct {
	snap Snapshot

	mu   sync.Mutex
	last Snapshot
}

// NewCore returns an empty core.
func NewCore() *Core { return &Core{} }

// Reset clears every metric; the engines call it at the start of each run.
func (c *Core) Reset() {
	c.snap = Snapshot{}
	c.mu.Lock()
	c.last = Snapshot{}
	c.mu.Unlock()
}

// Fold adds one worker shard into the cumulative snapshot and clears it.
// Called once per worker per cycle, from the single merge goroutine.
func (c *Core) Fold(sh *Shard) {
	for i := range sh.Counters {
		c.snap.Counters[i] += sh.Counters[i]
	}
	for i := range sh.GaugeDelta {
		c.snap.Gauges[i] += sh.GaugeDelta[i]
	}
	for h := 0; h < int(NumHists); h++ {
		for b := 0; b < HistBuckets; b++ {
			c.snap.Hists[h][b] += sh.Hists[h][b]
		}
		c.snap.HistSum[h] += sh.HistSum[h]
		c.snap.HistCount[h] += sh.HistCount[h]
	}
	*sh = Shard{}
}

// AddCounter adds n to a counter directly on the merged snapshot; the
// engines use it for values they already fold per cycle (moves, deliveries)
// so the hot loop need not double-count them.
func (c *Core) AddCounter(id CounterID, n int64) { c.snap.Counters[id] += n }

// SetGauge sets a gauge to an absolute value on the merged snapshot.
func (c *Core) SetGauge(id GaugeID, v int64) { c.snap.Gauges[id] = v }

// EndCycle stamps the cycle count, publishes a copy for concurrent readers,
// and returns the cumulative snapshot. The returned pointer is owned by the
// run loop: observers may read it during their OnCycle call but must copy
// it to retain it.
func (c *Core) EndCycle(cycle int64) *Snapshot {
	c.snap.Cycle = cycle
	c.mu.Lock()
	c.last = c.snap
	c.mu.Unlock()
	return &c.snap
}

// Latest returns a copy of the most recently published snapshot. Safe to
// call from any goroutine at any time, including mid-run.
func (c *Core) Latest() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}
