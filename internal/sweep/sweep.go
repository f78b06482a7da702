// Package sweep is the parallel orchestrator behind cmd/tables: it turns
// the paper's evaluation (bench.Tables, bench.ExtendedSuite) into a flat
// list of independent (experiment, size) cells, each costed by exec.Compile
// of its spec, schedules them longest-processing-time-first onto a bounded
// slot pool that splits a global worker budget between concurrent cells
// and per-simulation Workers. Every cell is an exec.RunSpec; given a result
// store, the sweep keeps each completed cell's exec.Result there under the
// spec's fingerprint and serves the cells the store already holds, so a
// killed sweep resumes instead of restarting and shares its results with
// every other holder of the same store file (routesimd -cache).
//
// Determinism: every cell is an independent, bit-deterministic simulation
// whose results do not depend on the Workers count (credited algorithms,
// the exception, are pinned to one worker), and merged results are ordered
// by the cells' canonical sequence — so the sweep's output is bit-identical
// regardless of the concurrency level, scheduling interleaving, a
// kill/resume cycle in the middle, or which cells came from the store.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/buildid"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/store"
)

// Suite selectors accepted by BuildJobs, mirroring cmd/tables -suite.
const (
	SuitePaper    = "paper"
	SuiteExtended = "extended"
	SuiteAll      = "all"
)

// Job is one schedulable cell of a sweep: a single (experiment, size) row.
type Job struct {
	ID    string // "table9/n12", "ext-mesh-random-n/side16"
	Suite string // SuitePaper or SuiteExtended
	Exp   string // experiment id within the suite
	Size  int    // hypercube dimension, or the topology's size parameter
	Seq   int    // canonical output position (the sequential run's order)
	// Nodes, Cost and Parallelizable are the compiled spec's
	// (exec.Compiled): the network size, the work estimate that drives the
	// LPT schedule, the worker split and the progress ETA, and whether the
	// cell may be granted Workers > 1.
	Nodes          int
	Cost           float64
	Parallelizable bool

	ex       bench.Experiment
	compiled *exec.Compiled // the cell's spec, compiled once by BuildJobs
}

// BuildJobs flattens the selected experiments into the sweep's job list, in
// canonical (sequential-output) order. table, when non-empty, selects one
// experiment by id and overrides suite; maxN bounds the hypercube dimension
// of paper cells (0 = all) and is ignored for extended cells, matching the
// sequential path. Every cell's spec is compiled here, so a bad option is
// refused before any cell runs, and the cell's Nodes, Cost and
// Parallelizable are the compiled spec's.
func BuildJobs(suite, table string, maxN int, opt bench.Options) ([]Job, error) {
	var exps []bench.Experiment
	switch {
	case table != "":
		ex, err := bench.Find(table)
		if err != nil {
			return nil, fmt.Errorf("sweep: unknown experiment %q", table)
		}
		exps = []bench.Experiment{ex}
	case suite == SuitePaper:
		exps = bench.Tables()
	case suite == SuiteExtended:
		exps = bench.ExtendedSuite()
	case suite == SuiteAll:
		exps = append(bench.Tables(), bench.ExtendedSuite()...)
	default:
		return nil, fmt.Errorf("sweep: unknown suite %q (want paper|extended|all)", suite)
	}

	var jobs []Job
	for _, ex := range exps {
		group := SuiteExtended
		if ex.Published() {
			group = SuitePaper
		}
		for _, size := range ex.Sizes {
			if maxN > 0 && size > maxN && ex.Published() {
				continue
			}
			id := fmt.Sprintf("%s/%s%d", ex.ID, ex.SizeLabel, size)
			s, err := ex.Spec(size, opt)
			if err != nil {
				return nil, fmt.Errorf("sweep: %s: %w", id, err)
			}
			c, err := exec.Compile(s)
			if err != nil {
				return nil, fmt.Errorf("sweep: %s: %w", id, err)
			}
			jobs = append(jobs, Job{
				ID: id, Suite: group, Exp: ex.ID, Size: size, Seq: len(jobs),
				Nodes: c.Nodes(), Cost: c.Cost, Parallelizable: c.Parallelizable,
				ex: ex, compiled: c,
			})
		}
	}
	return jobs, nil
}

// Result is one completed cell, in canonical order in Run's result slice.
type Result struct {
	Job        Job
	Row        bench.Row
	ElapsedSec float64
	Cached     bool // served from Options.Store, not re-run
}

// ErrStopped reports that the sweep hit Options.StopAfter and exited early
// on purpose; Options.Store holds the completed cells.
var ErrStopped = errors.New("sweep: stopped after requested number of cells")

// Options tunes a sweep run. The zero value runs sequentially and keeps
// nothing — the exact behavior of the old cmd/tables loop.
type Options struct {
	Jobs   int // concurrent cells (default 1)
	Budget int // total worker budget across concurrent cells (default GOMAXPROCS)
	// FixedWorkers forces every cell to this Workers value (the -workers
	// flag); 0 lets the scheduler split Budget cost-aware per cell, capped
	// by exec.WorkersBySize (WorkersFor).
	FixedWorkers int
	// Store, when set, is consulted for every cell before anything runs and
	// receives every cell that does run, keyed by the cell's
	// RunSpec.Fingerprint under this binary's build id — the key and blob
	// internal/daemon uses, so the two share a store file. Nil keeps
	// nothing and fingerprints nothing.
	Store *store.Store
	// StopAfter ends the sweep with ErrStopped once that many cells have
	// completed in this run (0 = run to completion); the deterministic
	// "kill" half of the kill/resume tests and CI smoke job.
	StopAfter int
	Sink      obs.SweepSink // progress events (nil = none)
}

func (o *Options) fill() {
	if o.Jobs < 1 {
		o.Jobs = 1
	}
	if o.Budget < 1 {
		o.Budget = runtime.GOMAXPROCS(0)
	}
}

// Run executes the jobs under the sweep options and returns one Result per
// job, in the jobs' (canonical) order. On ErrStopped or cancellation the
// results of unfinished cells are zero; completed cells are already in
// Options.Store when one is configured. Each job runs the spec BuildJobs
// compiled for it, so the bench.Options argument is not read.
func Run(ctx context.Context, jobs []Job, _ bench.Options, o Options) ([]Result, error) {
	o.fill()
	if ctx == nil {
		ctx = context.Background()
	}

	results := make([]Result, len(jobs))
	prog := newProgress(jobs, o.Sink)
	keys := make([]string, len(jobs)) // store keys; "" = not kept
	var pending []int
	for i, job := range jobs {
		c := job.compiled
		if c == nil {
			return nil, fmt.Errorf("sweep: %s: not a job of BuildJobs", job.ID)
		}
		if o.Store != nil && c.Spec.Storable() {
			keys[i] = c.Spec.Fingerprint(buildid.ID())
			// An entry that does not decode is a miss: the cell re-runs and
			// its Put supersedes the damaged line.
			if res, ok, _ := exec.Load(o.Store, keys[i]); ok {
				results[i] = Result{Job: job, Row: job.ex.Row(job.Size, job.Nodes, res), ElapsedSec: res.ElapsedSec, Cached: true}
				prog.cached(job)
				continue
			}
		}
		pending = append(pending, i)
	}

	order := LPTOrder(jobs, pending)
	maxCost := 0.0
	for _, i := range pending {
		if jobs[i].Cost > maxCost {
			maxCost = jobs[i].Cost
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	pool := newSlotPool(o.Jobs, o.Budget)
	defer pool.closeOnDone(runCtx)()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		executed int
		stopped  bool
	)
	for _, idx := range order {
		job := jobs[idx]
		w := WorkersFor(job, o.Budget, o.Jobs, maxCost)
		if o.FixedWorkers > 0 {
			w = o.FixedWorkers
			if w > o.Budget {
				w = o.Budget
			}
		}
		if !pool.acquire(w) {
			break // sweep canceled or stopped while waiting
		}
		wg.Add(1)
		go func(idx int, job Job, w int) {
			defer wg.Done()
			defer pool.release(w)
			prog.start(job, w)
			// The grant is explicit, 1 included: Workers 0 would let the
			// run size itself against GOMAXPROCS, not this sweep's budget.
			t0 := time.Now()
			res, err := job.compiled.Run(runCtx, w, nil)
			elapsed := time.Since(t0).Seconds()
			if err == nil && keys[idx] != "" {
				err = exec.Save(o.Store, keys[idx], res)
			}

			if err != nil {
				mu.Lock()
				if firstErr == nil && !errors.Is(err, context.Canceled) {
					firstErr = fmt.Errorf("%s: %w", job.ID, err)
				}
				mu.Unlock()
				cancel()
				return
			}
			results[idx] = Result{Job: job, Row: job.ex.Row(job.Size, job.Nodes, res), ElapsedSec: elapsed}
			mu.Lock()
			executed++
			stopNow := o.StopAfter > 0 && executed >= o.StopAfter && !stopped
			if stopNow {
				stopped = true
			}
			mu.Unlock()
			prog.done(job)
			if stopNow {
				cancel()
			}
		}(idx, job, w)
	}
	wg.Wait()

	switch {
	case firstErr != nil:
		return results, firstErr
	case stopped:
		return results, ErrStopped
	case ctx.Err() != nil:
		return results, ctx.Err()
	}
	prog.sweepDone()
	return results, nil
}

// progress aggregates completion state and derives the events' ETA from the
// cost model: the rate is measured over executed cost only, so resumed
// (cached) cells advance the progress fraction without skewing the rate.
type progress struct {
	sink obs.SweepSink
	t0   time.Time

	mu        sync.Mutex
	doneCells int
	total     int
	costDone  float64
	costTotal float64
	execDone  float64 // executed (non-cached) cost completed
	execTotal float64 // executed cost scheduled for this run
}

func newProgress(jobs []Job, sink obs.SweepSink) *progress {
	p := &progress{sink: sink, t0: time.Now(), total: len(jobs)}
	for _, j := range jobs {
		p.costTotal += j.Cost
	}
	p.execTotal = p.costTotal
	return p
}

func (p *progress) emit(kind obs.SweepEventKind, job string, workers int) {
	if p.sink == nil {
		return
	}
	elapsed := time.Since(p.t0).Seconds()
	eta := -1.0
	if p.execDone > 0 && elapsed > 0 {
		rate := p.execDone / elapsed
		eta = (p.execTotal - p.execDone) / rate
	}
	p.sink.OnSweepEvent(obs.SweepEvent{
		Kind: kind, Job: job, Workers: workers,
		Done: p.doneCells, Total: p.total,
		CostDone: p.costDone, CostTotal: p.costTotal,
		ElapsedSec: elapsed, ETASec: eta,
	})
}

func (p *progress) cached(job Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneCells++
	p.costDone += job.Cost
	p.execTotal -= job.Cost
	p.emit(obs.SweepJobCached, job.ID, 0)
}

func (p *progress) start(job Job, workers int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emit(obs.SweepJobStart, job.ID, workers)
}

func (p *progress) done(job Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneCells++
	p.costDone += job.Cost
	p.execDone += job.Cost
	p.emit(obs.SweepJobDone, job.ID, 0)
}

func (p *progress) sweepDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emit(obs.SweepDone, "", 0)
}
