package sim

// PhaseTimes is the per-phase wall-clock breakdown of a run, accumulated at
// the cycle barrier when Config.PhaseProf is set (all fields stay zero
// otherwise). It answers the scaling question "which phase limits the
// speedup": the parallel phases (inject, node (a), node (b), link) should
// shrink with the worker count while the sequential sections (merge, other)
// stay flat — whichever dominates at high worker counts is the bottleneck.
//
// The times are measured around the coordinator's phase dispatch, so each
// parallel phase's figure includes its barrier (release, spin, wake): the
// breakdown deliberately charges synchronization to the phase that paid it.
type PhaseTimes struct {
	InjectNs int64 // injection phase
	PhaseANs int64 // node phase (a): queues -> output buffers
	PhaseBNs int64 // node phase (b): input buffers -> queues
	LinkNs   int64 // link phase and mail-lane fold (0 for the atomic engine, which has no links)
	MergeNs  int64 // sequential per-cycle stats/metric merge
	OtherNs  int64 // rest of the cycle: watchdog, observer probes, fault replay
	Cycles   int64 // cycles the breakdown covers
	// Parks counts the pool workers' slow-path parks (a channel wait after
	// the spin and yield budgets ran out). Many parks per cycle say the
	// workers waited on each other; few, in a slow run, point at the host.
	Parks int64
}

// TotalNs returns the summed wall time across all phases.
func (p PhaseTimes) TotalNs() int64 {
	return p.InjectNs + p.PhaseANs + p.PhaseBNs + p.LinkNs + p.MergeNs + p.OtherNs
}

// add accumulates one cycle's phase samples.
func (p *PhaseTimes) add(lap [numPhases]int64, other int64) {
	p.InjectNs += lap[phInject]
	p.PhaseANs += lap[phA]
	p.PhaseBNs += lap[phB]
	p.LinkNs += lap[phLink]
	p.MergeNs += lap[phMerge]
	p.OtherNs += other
	p.Cycles++
}
