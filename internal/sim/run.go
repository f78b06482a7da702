package sim

import "repro/internal/obs"

// Plan describes the schedule of a run: either drain a finite (static)
// workload to completion, or simulate a fixed warmup+measure window of
// dynamic injection. Build one with StaticPlan or DynamicPlan.
type Plan struct {
	// Drain, when true, runs until the traffic source is exhausted and the
	// network is empty (the paper's static injection model).
	Drain bool
	// Warmup and Measure bound the dynamic model's measurement window:
	// the run simulates Warmup+Measure cycles and the latency / injection-
	// rate statistics cover only the measured part.
	Warmup, Measure int64
	// MaxCycles aborts the run with an error after this many cycles
	// (0 = no bound; ignored for dynamic plans, which are bounded by
	// Warmup+Measure).
	MaxCycles int64
}

// StaticPlan returns a drain-to-completion plan with the given cycle budget
// (0 = unbounded).
func StaticPlan(maxCycles int64) Plan {
	return Plan{Drain: true, MaxCycles: maxCycles}
}

// DynamicPlan returns a fixed-window dynamic plan.
func DynamicPlan(warmup, measure int64) Plan {
	return Plan{Warmup: warmup, Measure: measure}
}

// RunResult is what a run hands back: the aggregate Metrics, and — when the
// metrics core was enabled (an Observer attached or Config.Metrics set) —
// the final metric snapshot.
type RunResult struct {
	// Metrics aggregates the paper's observables over the run.
	Metrics Metrics
	// Snapshot is the final merged metric snapshot; the zero value unless
	// Observed.
	Snapshot obs.Snapshot
	// Observed reports whether the metrics core was enabled for the run.
	Observed bool
	// Canceled reports that the run was stopped by context cancellation or
	// deadline; Metrics and Snapshot then cover the completed cycles.
	Canceled bool
}
