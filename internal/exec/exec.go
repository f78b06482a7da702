package exec

import (
	"context"
	"time"

	"repro/internal/buildid"
	"repro/internal/obs"
	"repro/internal/sim"
)

// simObserver is the observer type Build threads through to the engine
// config; an alias so spec.go stays free of the obs import noise.
type simObserver = obs.Observer

// Result is the serializable outcome of executing a RunSpec: what the
// store persists under the spec's fingerprint and the daemon returns from
// POST /v1/sim. Metrics is the deterministic payload — byte-identical for
// the same fingerprint whether freshly simulated or served from the store;
// ElapsedSec and BuildID describe the execution that produced it.
type Result struct {
	V          int         `json:"v"`
	FP         string      `json:"fingerprint"`
	Spec       RunSpec     `json:"spec"` // canonical form
	Metrics    sim.Metrics `json:"metrics"`
	ElapsedSec float64     `json:"elapsed_sec"`
	BuildID    string      `json:"build_id"`
}

// BuildID identifies the running binary for fingerprints; see
// bench.BuildID.
func BuildID() string { return buildid.ID() }

// Run compiles the spec and executes it with the workers it names; see
// Compiled.Run.
func Run(ctx context.Context, s RunSpec, o obs.Observer) (Result, error) {
	c, err := Compile(s)
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx, 0, o)
}

// Run builds the engine, source and plan, and executes the run to
// completion (or ctx cancellation). workers is a scheduler's grant: it
// applies where the spec leaves Workers unset, and the Result's spec
// records the count the run used. o, when non-nil, taps the run's Observer
// probes — progress streaming for the daemon's SSE endpoint; observers are
// read-only, so the Result is bit-identical with or without one.
func (c *Compiled) Run(ctx context.Context, workers int, o obs.Observer) (Result, error) {
	ran := c.Spec
	if ran.Workers == 0 {
		ran.Workers = workers
	}
	eng, err := c.build(ran.Workers, o)
	if err != nil {
		return Result{}, err
	}
	src, plan, err := c.source()
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res, err := eng.Run(ctx, src, plan)
	if err != nil {
		return Result{}, err
	}
	return Result{
		V:          SpecVersion,
		FP:         ran.Fingerprint(BuildID()),
		Spec:       ran,
		Metrics:    res.Metrics,
		ElapsedSec: time.Since(start).Seconds(),
		BuildID:    BuildID(),
	}, nil
}
