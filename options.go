package repro

import "repro/internal/obs"

// EngineOption customizes a simulator built by NewSimulatorOpts. Options
// apply over the zero Config in order, so a later option overrides an
// earlier one; anything left unset keeps the Config defaults (queue
// capacity 5, PolicyFirstFree, one worker). The options form is a
// convenience over exactly the Config NewSimulator takes.
type EngineOption func(*Config)

// WithQueueCap sets the central-queue capacity (the paper fixes 5).
func WithQueueCap(capacity int) EngineOption {
	return func(c *Config) { c.QueueCap = capacity }
}

// WithPolicy sets the selection policy among admissible moves.
func WithPolicy(p Policy) EngineOption {
	return func(c *Config) { c.Policy = p }
}

// WithSeed sets the reproducibility seed; results are independent of the
// worker count for a fixed seed.
func WithSeed(seed int64) EngineOption {
	return func(c *Config) { c.Seed = seed }
}

// WithWorkers shards the nodes across n goroutines (buffered engine only;
// the atomic engine is inherently sequential and ignores it, and algorithms
// with credited moves — the shuffle-exchange family — are refused with
// n > 1 because their results would depend on it). The RunSpec path differs:
// RunSpec.Validate rejects workers > 1 with the atomic engine instead of
// ignoring them, so a spec never claims parallelism it does not have.
func WithWorkers(n int) EngineOption {
	return func(c *Config) { c.Workers = n }
}

// WithObserver attaches an observer to the run and enables the metrics
// core. Compose several with MultiObserver; observers are read-only taps,
// so attaching one never changes the simulation outcome.
func WithObserver(o Observer) EngineOption {
	return func(c *Config) { c.Observer = o }
}

// WithMetrics enables the metrics core without attaching an observer:
// Run's RunResult then carries the final snapshot and Engine.Obs exposes
// the live core (e.g. for a /metrics endpoint).
func WithMetrics() EngineOption {
	return func(c *Config) { c.Metrics = true }
}

// WithCutThrough enables virtual cut-through switching [KK79]. It is an
// option of the buffered node model: the atomic engine has no link buffers
// to cut through, and NewSimulator("atomic", ...) returns an error naming it.
func WithCutThrough() EngineOption {
	return func(c *Config) { c.CutThrough = true }
}

// WithRemoteLookahead makes moves commit against target-queue state
// (Section 2's abstract Route(q) over the buffered model). The atomic engine
// is that Route(q) already; NewSimulator("atomic", ...) returns an error
// naming the option instead of ignoring it.
func WithRemoteLookahead() EngineOption {
	return func(c *Config) { c.RemoteLookahead = true }
}

// WithHeadOnly restricts node phase (a) to queue heads (the strict
// Section 2 reading) as an ablation of head-of-line blocking.
func WithHeadOnly() EngineOption {
	return func(c *Config) { c.HeadOnly = true }
}

// WithWatchdog sets the no-progress window after which the deadlock
// watchdog aborts the run with ErrDeadlock (default 1000 cycles). When it
// fires, the wait-for state of every blocked queue head is captured in
// ErrDeadlock.Dump and delivered to observers implementing OnDeadlock.
func WithWatchdog(windowCycles int) EngineOption {
	return func(c *Config) { c.DeadlockWindow = windowCycles }
}

// WithFaultPlan schedules deterministic link/node failures for the run and
// enables degraded-mode routing: misrouting over surviving links (bounded by
// hopBudget extra traversals beyond the minimal distance; <= 0 selects the
// plan's budget, or 64) when faults empty a packet's minimal candidate set,
// drops for packets that faults strand, and exponential retry-backoff for
// injection under saturation. Build the plan with FaultPlan methods or
// ParseFaultSpec. A nil plan leaves the fault machinery compiled out.
func WithFaultPlan(p *FaultPlan, hopBudget int) EngineOption {
	return func(c *Config) {
		c.Faults = p
		c.HopBudget = hopBudget
	}
}

// NewSimulatorOpts builds either engine behind the engine-agnostic
// Simulator API from functional options:
//
//	s, err := repro.NewSimulatorOpts("buffered", algo,
//	    repro.WithQueueCap(5),
//	    repro.WithWorkers(4),
//	    repro.WithObserver(repro.NewLatencyObserver()))
//
// kind is "buffered" or "atomic" (EngineNames). For runs describable as a
// RunSpec, prefer RunSpec.Build — it validates, fingerprints and caches.
func NewSimulatorOpts(kind string, algo Algorithm, opts ...EngineOption) (Simulator, error) {
	cfg := Config{Algorithm: algo}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return NewSimulator(kind, cfg)
}

// MultiObserver composes observers into one that fans every probe out to
// each in order. Nils are dropped; a single survivor is returned unwrapped
// and zero survivors yield nil.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }
