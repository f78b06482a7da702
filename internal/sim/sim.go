// Package sim provides the two packet-routing simulators used to evaluate
// the algorithms:
//
//   - Engine is the cycle-accurate buffered simulator implementing the node
//     and link model of Sections 6 and 7.1 of the paper: per-link input and
//     output buffers (one per static target queue plus one shared dynamic
//     buffer), a node cycle that first fills output buffers from the queues
//     in FIFO order and then drains input and injection buffers into the
//     queues fairly, and a link cycle that moves at most one packet per
//     direction. A hop therefore costs two cycles through a node, and an
//     uncongested d-hop route has latency 2d+1 — the calibration that makes
//     Table 2's L = 2n+1 come out exactly.
//
//   - AtomicEngine is the abstract store-and-forward model of Section 2
//     (the greedy Route(q) algorithm): queue-to-queue moves applied
//     atomically, one per queue per cycle, so MinFree conditions are exact.
//     The package's tests check it after every cycle against a naive
//     stepper of the same model (ref, in reference_test.go).
//
// Both engines detect deadlock (no packet movement while packets remain)
// and assert livelock freedom (hop bounds at delivery), and both are fully
// deterministic for a fixed seed, including under parallel execution.
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TrafficSource drives injection. Implementations live in internal/traffic;
// the interface is defined here so the engines carry no traffic dependency.
// Engines call Wants at most once per node per cycle and Take only when the
// injection actually commits, always from the goroutine that owns the node,
// so implementations need per-node state only.
type TrafficSource interface {
	// Wants reports whether node attempts to inject a packet this cycle.
	// An attempt against an occupied injection queue fails (and counts
	// against the effective injection rate); Take is then not called and
	// the source must not consider the packet consumed.
	Wants(node int32, cycle int64) bool
	// Take returns the destination of the packet being injected at node.
	// It is called at most once per Wants, and only when the injection
	// queue has room.
	Take(node int32, cycle int64) int32
	// Exhausted reports whether node will never attempt again. Dynamic
	// (Bernoulli) sources return false forever; static sources return true
	// once their per-node allotment is injected.
	Exhausted(node int32) bool
}

// Policy selects among the admissible candidate moves of a packet.
type Policy uint8

const (
	// PolicyFirstFree picks the first admissible move in candidate order,
	// which for every algorithm in core is low-to-high dimension order —
	// the paper's "each node fills its output buffers from low to high
	// dimensions" (Section 7.1). It is the default; it also makes the
	// uncongested Complement runs reproduce Table 2's exact L = 2n+1
	// (dimension-ordered complement traffic never collides).
	PolicyFirstFree Policy = iota
	// PolicyRandom picks uniformly at random among admissible moves; the
	// paper's select "may return any q' satisfying the condition", and the
	// random choice spreads load without positional bias.
	PolicyRandom
	// PolicyStaticFirst picks a random admissible static move if one
	// exists, falling back to dynamic moves: an ablation that treats
	// dynamic links strictly as overflow capacity.
	PolicyStaticFirst
	// PolicyLastFree picks the last admissible move in candidate order —
	// a deliberately unhelpful choice (it prefers dynamic links and high
	// dimensions) used by the stress tests to check that deadlock freedom
	// does not depend on benign selection.
	PolicyLastFree
)

func (p Policy) String() string {
	switch p {
	case PolicyRandom:
		return "random"
	case PolicyFirstFree:
		return "first-free"
	case PolicyStaticFirst:
		return "static-first"
	case PolicyLastFree:
		return "last-free"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// PolicyNames lists the textual policy names accepted by ParsePolicy, in
// Policy order.
var PolicyNames = []string{"first-free", "random", "static-first", "last-free"}

// ParsePolicy is the inverse of Policy.String: it resolves the textual
// policy names the CLIs and RunSpec accept. The empty string selects the
// default PolicyFirstFree.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "first-free":
		return PolicyFirstFree, nil
	case "random":
		return PolicyRandom, nil
	case "static-first":
		return PolicyStaticFirst, nil
	case "last-free":
		return PolicyLastFree, nil
	}
	return 0, fmt.Errorf("sim: unknown policy %q, valid: %v", s, PolicyNames)
}

// Config configures either engine.
type Config struct {
	Algorithm core.Algorithm
	// QueueCap is the capacity of each central queue (the paper fixes 5).
	// Must be >= 2 for algorithms that use bubble-guarded moves.
	QueueCap int
	// Policy selects among admissible moves; default PolicyFirstFree.
	Policy Policy
	// Seed makes runs reproducible. Every node derives its own generator
	// from it, so results are independent of worker count.
	Seed int64
	// Workers > 1 shards the nodes across goroutines with barriers between
	// the phases of a cycle. 0 or 1 means sequential. Algorithms with
	// credited moves (Props().Credits) are refused with Workers > 1, because
	// their results would depend on it; the atomic engine ignores Workers.
	Workers int
	// PhaseProf measures the wall-clock time of each engine phase (inject,
	// node (a), node (b), link, stats merge) at the cycle barrier,
	// accumulated into PhaseTimes and — when the metrics core is on — the
	// obs phase-time counters. Profiling forces the unfused four-barrier
	// pipeline so each phase is individually observable; expect a few
	// percent of overhead. Off by default: the hot loop then pays one
	// predictable branch per phase.
	PhaseProf bool
	// CutThrough enables virtual cut-through switching [KK79], the hybrid
	// between packet routing and wormhole the paper's introduction names: a
	// packet arriving at a node may proceed straight from the input buffer
	// to a free output buffer in the same cycle, without being stored in a
	// central queue. Blocked packets fall back to the store-and-forward
	// path, so deadlock freedom is unchanged (cut-through only ever uses
	// free buffers); an uncongested hop costs 1 cycle instead of 2. The
	// atomic engine has no buffers to cut through and refuses the option.
	CutThrough bool
	// HeadOnly restricts node phase (a) to each queue's head packet, the
	// strict reading of Section 2's Route(q) (one head move per queue per
	// cycle). The default lets packets behind a blocked head depart first
	// when they want a different buffer, the natural reading of Section
	// 7.1's per-buffer FIFO arbitration; HeadOnly quantifies the cost of
	// head-of-line blocking as an ablation.
	HeadOnly bool
	// Faults schedules link and node failures for the run (see the fault
	// package). The plan is compiled against the algorithm's topology when
	// the engine is built; a nil plan (the default) costs nothing on the hot
	// path. With faults enabled the engine routes around dead links
	// (misrouting with a hop budget when the minimal candidate set is
	// emptied), drops packets that faults strand, and applies
	// retry-with-backoff to saturated injection — all bit-deterministically
	// across worker counts.
	Faults *fault.Plan
	// HopBudget bounds the extra link traversals (beyond MaxHops) a
	// fault-misrouted packet may take before it is dropped. 0 selects the
	// plan's budget, or 64 when the plan sets none. Ignored without Faults.
	HopBudget int
	// Observer, if set, receives the run's delivery, per-cycle, and
	// end-of-run probes together with the merged metric snapshots; compose
	// several with obs.Multi. Attaching an observer enables the metrics
	// core for the run (see Metrics). Observers are read-only taps: for a
	// fixed seed, Metrics and the final snapshot are bit-identical with or
	// without one attached.
	Observer obs.Observer
	// Metrics enables the metrics core even without an Observer: the run's
	// RunResult then carries the final snapshot, and Engine.Obs exposes
	// the live core (e.g. for a /metrics endpoint). With neither Metrics
	// nor Observer set, the instrumentation is compiled out of the hot
	// loop behind a single predictable branch.
	Metrics bool
}

func (c *Config) fill() error {
	if c.Algorithm == nil {
		return fmt.Errorf("sim: Config.Algorithm is nil")
	}
	if c.QueueCap == 0 {
		c.QueueCap = 5
	}
	if c.QueueCap < 1 {
		return fmt.Errorf("sim: QueueCap must be >= 1, got %d", c.QueueCap)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Workers > 1 && c.Algorithm.Props().Credits {
		// Credited moves commit against live occupancy, so their tie-breaks
		// would depend on how the workers interleave.
		return fmt.Errorf("sim: Workers must be 1 for %s: its credited moves are not worker-count deterministic, got %d",
			c.Algorithm.Name(), c.Workers)
	}
	return nil
}

// deadlockWindow is the number of consecutive cycles without any packet
// movement (while packets remain in the network) after which a run aborts
// with ErrDeadlock.
const deadlockWindow = 1000

// ErrDeadlock is returned when the watchdog observes no packet movement for
// deadlockWindow consecutive cycles while undelivered packets remain. The
// verified algorithms never trigger it; tests use it with adversarial
// configurations to prove the watchdog works.
type ErrDeadlock struct {
	Cycle     int64
	InFlight  int
	Algorithm string
	// Dump is the wait-for state at the moment the watchdog fired: which
	// queue heads were blocked and which outputs they were waiting on. It is
	// also delivered to the run's observer when it implements
	// obs.DeadlockObserver.
	Dump *obs.DeadlockDump
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock: %s made no progress by cycle %d with %d packets in flight",
		e.Algorithm, e.Cycle, e.InFlight)
}

// Metrics aggregates the observables the paper reports, plus bookkeeping
// used by the tests.
type Metrics struct {
	Cycles       int64 `json:"cycles"`        // cycles simulated
	Injected     int64 `json:"injected"`      // packets that entered an injection queue
	Delivered    int64 `json:"delivered"`     // packets consumed at their destination
	Dropped      int64 `json:"dropped"`       // packets lost to faults (dead nodes/links, hop budget)
	InFlight     int64 `json:"in_flight"`     // packets still in the network when the run ended
	Attempts     int64 `json:"attempts"`      // injection attempts (dynamic model, measured window)
	Successes    int64 `json:"successes"`     // successful attempts (dynamic model, measured window)
	LatencySum   int64 `json:"latency_sum"`   // sum of latencies over measured deliveries
	LatencyMax   int64 `json:"latency_max"`   // maximum latency over measured deliveries
	Measured     int64 `json:"measured"`      // deliveries contributing to the latency statistics
	MaxQueue     int   `json:"max_queue"`     // maximum central-queue occupancy ever observed
	Moves        int64 `json:"moves"`         // total packet movements (progress events)
	DynamicMoves int64 `json:"dynamic_moves"` // movements that used a dynamic link
}

// AvgLatency returns the mean latency over the measured deliveries, the
// paper's L_avg.
func (m *Metrics) AvgLatency() float64 {
	if m.Measured == 0 {
		return 0
	}
	return float64(m.LatencySum) / float64(m.Measured)
}

// InjectionRate returns the effective injection rate I_r in [0,1]: the
// ratio of successful to attempted injections (Section 7.1).
func (m *Metrics) InjectionRate() float64 {
	if m.Attempts == 0 {
		return 0
	}
	return float64(m.Successes) / float64(m.Attempts)
}

func (m *Metrics) String() string {
	return fmt.Sprintf("cycles=%d injected=%d delivered=%d Lavg=%.2f Lmax=%d Ir=%.1f%%",
		m.Cycles, m.Injected, m.Delivered, m.AvgLatency(), m.LatencyMax, 100*m.InjectionRate())
}
