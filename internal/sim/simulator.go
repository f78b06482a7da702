package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Simulator is the engine-agnostic view of a packet-routing simulation run.
// Both Engine (the buffered cycle-accurate model of Sections 6/7.1) and
// AtomicEngine (the abstract Route(q) model of Section 2) implement it, so
// tools and experiments pick the model with NewSimulator and drive it
// through one API instead of branching on the concrete type.
type Simulator interface {
	// Run simulates according to plan, stopping early if ctx is canceled.
	Run(ctx context.Context, src TrafficSource, plan Plan) (RunResult, error)
	// Start begins a stepwise run; Step then simulates one cycle at a time.
	Start(src TrafficSource, plan Plan)
	// Step simulates one cycle of the started plan. It reports done when the
	// plan completed (err then carries any failure, e.g. *ErrDeadlock); the
	// outcome is also available from Result.
	Step() (done bool, err error)
	// Result returns the outcome of the finished stepwise run.
	Result() (RunResult, error)
	// Metrics returns the aggregate metrics of the run so far.
	Metrics() Metrics
	// State copies every packet's place (between cycles only).
	State() State
	// Obs returns the simulator's metrics core, or nil when observability is
	// off.
	Obs() *obs.Core
	// PhaseTimes returns the per-phase wall-clock breakdown accumulated so
	// far; all zero unless Config.PhaseProf was set.
	PhaseTimes() PhaseTimes
	// Algorithm returns the routing algorithm under simulation.
	Algorithm() core.Algorithm
}

// Compile-time checks that both engines satisfy the interface.
var (
	_ Simulator = (*Engine)(nil)
	_ Simulator = (*AtomicEngine)(nil)
)

// EngineKinds lists the valid NewSimulator kinds.
var EngineKinds = []string{"buffered", "atomic"}

// NewSimulator builds the simulation engine selected by kind: "buffered"
// (or "") for the cycle-accurate Engine, "atomic" for the AtomicEngine.
func NewSimulator(kind string, cfg Config) (Simulator, error) {
	switch kind {
	case "", "buffered":
		return NewEngine(cfg)
	case "atomic":
		return NewAtomicEngine(cfg)
	default:
		return nil, fmt.Errorf("sim: unknown engine %q, valid: %v", kind, EngineKinds)
	}
}
