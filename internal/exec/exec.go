package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/buildid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

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

// Run compiles the spec and executes it with the workers it names, or,
// where it names none, with the count WorkersBySize gives its network under
// a budget of GOMAXPROCS; see Compiled.Run.
func Run(ctx context.Context, s RunSpec, o obs.Observer) (Result, error) {
	c, err := Compile(s)
	if err != nil {
		return Result{}, err
	}
	return c.Run(ctx, 0, o)
}

// Run builds the engine, source and plan, and executes the run to
// completion (or ctx cancellation). workers is a scheduler's grant: it
// applies where the spec leaves Workers unset, and where neither names a
// count the run takes the size rule's (Compiled.Workers). The Result's spec
// records the count the run used. o, when non-nil, taps the run's Observer
// probes — progress streaming for the daemon's SSE endpoint; observers are
// read-only, so the Result is bit-identical with or without one.
func (c *Compiled) Run(ctx context.Context, workers int, o obs.Observer) (Result, error) {
	ran := c.Spec
	if ran.Workers == 0 {
		ran.Workers = workers
	}
	ran.Workers = c.Workers(ran.Workers)
	eng, err := c.Build(ran.Workers, o)
	if err != nil {
		return Result{}, err
	}
	src, plan, err := c.Source()
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
		FP:         ran.Fingerprint(buildid.ID()),
		Spec:       ran,
		Metrics:    res.Metrics,
		ElapsedSec: time.Since(start).Seconds(),
		BuildID:    buildid.ID(),
	}, nil
}

// Save keeps res in the store under key, the spec's Fingerprint. This and
// Load are the only places a Result is encoded for storage or decoded from
// it, so every writer of a store file — the daemon, a sweep — leaves blobs
// every reader understands.
func Save(st *store.Store, key string, res Result) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("exec: encode result %s: %w", key, err)
	}
	return st.Put(key, blob)
}

// Load returns the result stored under key. ok is false when the store has
// no such entry, and also when it has one that does not decode, which err
// then describes: a reader may re-run the spec or report the damage.
func Load(st *store.Store, key string) (res Result, ok bool, err error) {
	blob, found := st.Get(key)
	if !found {
		return Result{}, false, nil
	}
	if err := json.Unmarshal(blob, &res); err != nil {
		return Result{}, false, fmt.Errorf("exec: corrupt store entry %s: %w", key, err)
	}
	return res, true, nil
}
