package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// sweepPart is a job list run through sweep.Run the way cmd/tables runs it
// with -jobs 1 -workers 1.
type sweepPart struct {
	jobs []sweep.Job
	opt  bench.Options
}

// prepareSweep builds the job list and, so that set-up has something a
// later change could move work into, builds every cell's engine once
// through the same RunSpec.Build path exec.Run takes inside the sweep.
func prepareSweep(suite string, maxN, maxNodes int, skip string, opt bench.Options) (*sweepPart, time.Duration, error) {
	t0 := time.Now()
	jobs, err := sweep.BuildJobs(suite, "", maxN, opt)
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(t0)
	kept := jobs[:0]
	for _, j := range jobs {
		if (maxNodes == 0 || j.Nodes <= maxNodes) && j.ID != skip {
			j.Seq = len(kept)
			kept = append(kept, j)
		}
	}
	jobs = kept
	for _, j := range jobs {
		s, err := jobSpec(j, opt)
		if err != nil {
			return nil, 0, err
		}
		// Each engine is built from a collected heap and dropped at once;
		// left to itself the collector runs at a different cell on every
		// repetition, and both the time and the peak RSS wander by a third.
		runtime.GC()
		t1 := time.Now()
		_, err = s.Build()
		setup += time.Since(t1)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", j.ID, err)
		}
	}
	return &sweepPart{jobs: jobs, opt: opt}, setup, nil
}

func jobSpec(j sweep.Job, opt bench.Options) (exec.RunSpec, error) {
	if j.Suite == sweep.SuitePaper {
		ex, err := bench.FindTable(j.Exp)
		if err != nil {
			return exec.RunSpec{}, err
		}
		return ex.Spec(j.Size, opt)
	}
	ex, err := bench.FindExtended(j.Exp)
	if err != nil {
		return exec.RunSpec{}, err
	}
	return ex.Spec(j.Size, opt)
}

// run executes the sweep once. A cell error cancels the sweep, so every
// cell without a result is reported failed.
func (p *sweepPart) run(tr *tracer) []op {
	so := sweep.Options{Jobs: 1, FixedWorkers: 1}
	id := tr.begin(-1, "sweep.run", "")
	if tr != nil {
		so.Sink = &sweepSink{t: tr, parent: id, open: map[string]int{}}
	}
	results, err := sweep.Run(context.Background(), p.jobs, p.opt, so)
	tr.end(id)
	ops := make([]op, len(p.jobs))
	for i, j := range p.jobs {
		o := op{cell: j.ID, golden: true, paperErr: -1}
		res := results[i]
		switch {
		case res.Job.ID == "":
			o.fail = "no result"
			if err != nil {
				o.fail = err.Error()
			}
		case res.Row.Delivered <= 0:
			o.fail = "no packet delivered"
		}
		row := res.Row
		o.wall = time.Duration(res.ElapsedSec * float64(time.Second))
		o.nodeCycles = float64(j.Nodes) * float64(row.Cycles)
		o.digest = digestOf([]byte(fmt.Sprintf("%d|%d|%v|%d|%v|%d|%d",
			row.Dims, row.Nodes, row.Lavg, row.Lmax, row.Ir, row.Cycles, row.Delivered)))
		if row.Paper.Lavg > 0 {
			o.paperErr = math.Abs(row.Lavg-row.Paper.Lavg) / row.Paper.Lavg
		}
		ops[i] = o
	}
	return ops
}

func sweepOptions(sc scale, seed int64) bench.Options {
	return bench.Options{Seed: seed, Warmup: sc.sweepWarmup, Measure: sc.sweepMeasure}
}

// paperTables is a workload that is nothing but Tables 1-12 up to maxN.
func paperTables(maxN int, opt bench.Options) (*instance, error) {
	p, setup, err := prepareSweep(sweep.SuitePaper, maxN, 0, "", opt)
	if err != nil {
		return nil, err
	}
	return &instance{setup: setup, round: func(_ int, tr *tracer) []op { return p.run(tr) }, close: func() {}}, nil
}

func preparePaperSweep(sc scale, seed int64, _ string) (*instance, error) {
	return paperTables(sc.paperMaxN, sweepOptions(sc, seed))
}

func prepareAtomicTables(sc scale, seed int64, _ string) (*instance, error) {
	return paperTables(sc.atomicMaxN, bench.Options{Seed: seed, Warmup: sc.atomicWarmup, Measure: sc.atomicMeasure, Engine: "atomic"})
}

// mixCells are topology_mix's exec.Run cells on one hypercube: the traffic
// models, the fault path and the metrics core that the sweeps never touch.
func mixCells(sc scale, seed int64) []exec.RunSpec {
	algo := fmt.Sprintf("hypercube-adaptive:%d", sc.mixDim)
	warm := sc.mixCycles / 4
	dyn := exec.RunSpec{Algo: algo, Seed: seed, Inject: "dynamic", Lambda: 0.5, Warmup: warm, Measure: sc.mixCycles - warm}
	mmpp, onoff, faulty, observed := dyn, dyn, dyn, dyn
	mmpp.Traffic = "mmpp"
	onoff.Traffic = "onoff"
	faulty.Faults = "links:0.05@0"
	observed.Seed = seed + 1 // otherwise the same run as a Bernoulli cell without faults would be
	drain := exec.RunSpec{Algo: algo, Seed: seed, Packets: 10, Faults: "links:0.05@0"}
	return []exec.RunSpec{mmpp, onoff, faulty, observed, drain}
}

var mixCellNames = []string{"exec/mmpp", "exec/onoff", "exec/bernoulli-faults", "exec/bernoulli-observed", "exec/static-faults"}

func prepareTopologyMix(sc scale, seed int64, _ string) (*instance, error) {
	p, setup, err := prepareSweep(sweep.SuiteExtended, 0, sc.extMaxNodes, sc.extSkip, sweepOptions(sc, seed))
	if err != nil {
		return nil, err
	}
	cells := mixCells(sc, seed)
	nodes := 1 << sc.mixDim
	round := func(_ int, tr *tracer) []op {
		ops := p.run(tr)
		for i, s := range cells {
			var o obs.Observer
			if mixCellNames[i] == "exec/bernoulli-observed" {
				o = obs.NewLatency()
			}
			ops = append(ops, execOp(tr, -1, mixCellNames[i], s, o, nodes))
		}
		return ops
	}
	return &instance{setup: setup, round: round, close: func() {}}, nil
}

func prepareCubeParallel(sc scale, seed int64, _ string) (*instance, error) {
	algo := fmt.Sprintf("hypercube-adaptive:%d", sc.cubeDim)
	warm := exec.RunSpec{Algo: algo, Seed: seed, Inject: "dynamic", Lambda: 1, Warmup: 1, Measure: sc.cubeWarmup, Workers: 2}
	if _, err := exec.Run(context.Background(), warm, nil); err != nil {
		return nil, err
	}
	s := warm
	s.Warmup, s.Measure = sc.cubeRun/8, sc.cubeRun-sc.cubeRun/8
	round := func(_ int, tr *tracer) []op {
		return []op{execOp(tr, -1, "cube", s, nil, 1<<sc.cubeDim)}
	}
	return &instance{round: round, close: func() {}}, nil
}

// graphDegree is the degree of every generated random-regular graph. The
// issue names k=4, but the generator gives up after 200 pairings and a
// pairing of degree 4 is simple with probability exp(-15/4), so about one
// topology seed in a hundred is refused; at degree 3 the odds are 1e-13 and
// no operation of the benchmark can fail for that reason.
const graphDegree = 3

func graphTopology(n int, topoSeed int64) string {
	return fmt.Sprintf("graph:random-regular:n=%d,k=%d,seed=%d", n, graphDegree, topoSeed)
}

// prepareGraphCold generates nothing ahead of time: the point of the
// workload is that every spec is new to the process. Topology seeds depend
// on the round, so a cache keyed on the spec cannot turn later rounds into
// hits; only round 0 can be pinned by a golden.
func prepareGraphCold(sc scale, seed int64, _ string) (*instance, error) {
	round := func(r int, tr *tracer) []op {
		ops := make([]op, 0, len(sc.graphSizes))
		for i, n := range sc.graphSizes {
			topoSeed := seed*1_000_003 + int64(r)*1009 + int64(i)
			s := exec.RunSpec{
				Algo:     "graph-adaptive",
				Topology: graphTopology(n, topoSeed),
				Seed:     seed, Inject: "dynamic", Lambda: 0.05,
				Warmup: sc.graphRun / 2, Measure: sc.graphRun,
			}
			o := execOp(tr, -1, fmt.Sprintf("graph/%02d-n%d", i, n), s, nil, n)
			o.golden = r == 0
			ops = append(ops, o)
		}
		return ops
	}
	return &instance{round: round, close: func() {}}, nil
}
