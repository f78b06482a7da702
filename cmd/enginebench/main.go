// Command enginebench measures the simulation engines' raw throughput
// (cycles/sec and delivered packets/sec) on a dynamic random workload (λ=1
// on the hypercube; the extended-suite rates on the other topologies) and
// appends the result to the BENCH_engine.json perf trajectory, so every
// change to the engine's hot loop is measured against the recorded history.
//
// Typical use:
//
//	go run ./cmd/enginebench -label my-change
//	go run ./cmd/enginebench -label quick -dims 8,10 -measure 200
//	go run ./cmd/enginebench -label atomic-change -engine atomic
//	go run ./cmd/enginebench -label mesh-before -algo mesh -nomask
//	go run ./cmd/enginebench -label graph-change -algo graph,hyperx
//	go run ./cmd/enginebench -label inject-before -nobatch
//	go run ./cmd/enginebench -label bursty -traffic mmpp,trace
//
// Comparison mode gates CI on regressions: it compares the matching cells
// of two trajectory files and exits nonzero when any cell of the second
// lost more than -tolerance of its baseline throughput:
//
//	go run ./cmd/enginebench -compare -tolerance 0.15 old.json new.json
//
// Scaling mode measures one parallel-efficiency curve — cycles/s of a fixed
// workload per worker count, plus the per-phase wall-clock breakdown when
// -phaseprof is set — and records it in BENCH_scaling.json:
//
//	go run ./cmd/enginebench -scaling -label my-change -workers 1,2,4
//	go run ./cmd/enginebench -scaling -phaseprof -rebalance 64 -label rb
//
// -pattern picks the destination pattern in either mode; with -phaseprof the
// scaling table also prints nanoseconds per node-cycle by phase and moves per
// node-cycle, the "where a saturated cycle goes" table of EXPERIMENTS.md:
//
//	go run ./cmd/enginebench -scaling -phaseprof -workers 1 -dims 10,11 \
//	    -pattern complement -scaling-out ""
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		label     = flag.String("label", "dev", "label recorded for this run (e.g. a revision name)")
		out       = flag.String("out", "BENCH_engine.json", "trajectory file to append to; empty = print only")
		algo      = flag.String("algo", "hypercube", "routing algorithm(s) to benchmark, comma-separated: hypercube|mesh|torus|shuffle|ccc|graph|dragonfly|hyperx|fattree")
		dims      = flag.String("dims", "", "comma-separated sizes (hypercube/shuffle/ccc: dimensions; mesh/torus: side); default per algo, so leave empty when -algo lists several")
		nomask    = flag.Bool("nomask", false, "disable the port-mask fast path (same-binary baseline for before/after runs)")
		nobatch   = flag.Bool("nobatch", false, "disable the batched injection fast path (same-binary baseline for before/after runs)")
		tmodel    = flag.String("traffic", "", "injection model(s) to time, comma-separated: bernoulli|mmpp|trace|perm (default bernoulli)")
		pattern   = flag.String("pattern", "random", "destination pattern (a spec.Pattern name): random|complement|transpose|leveled|...")
		workers   = flag.String("workers", "", "comma-separated worker counts (default \"1,<NumCPU>\")")
		warmup    = flag.Int64("warmup", 100, "warmup cycles per cell")
		measure   = flag.Int64("measure", 400, "measured cycles per cell")
		repeat    = flag.Int("repeat", 3, "timed repetitions per cell (fastest kept)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		engine    = flag.String("engine", "buffered", "simulation model to benchmark: buffered|atomic")
		base      = flag.String("baseline", "", "label of a recorded run to print speedups against (default: first run in the file)")
		note      = flag.String("note", "", "free-form context recorded with the run (e.g. host conditions)")
		compare   = flag.Bool("compare", false, "compare two trajectory files (old.json new.json) and exit nonzero on regression")
		tolerance = flag.Float64("tolerance", 0.10, "compare mode: tolerated relative slowdown per cell (0.10 = 10%)")
		useLabel  = flag.String("compare-labels", "", "compare mode: \"oldLabel,newLabel\" run labels to compare (default: last run of each file)")

		scaling    = flag.Bool("scaling", false, "scaling mode: record a parallel-efficiency curve over -workers instead of the throughput trajectory")
		scalingOut = flag.String("scaling-out", "BENCH_scaling.json", "scaling mode: artifact file to append to; empty = print only")
		phaseprof  = flag.Bool("phaseprof", false, "scaling mode: additionally profile each point's per-phase wall time (separate pass)")
		rebalance  = flag.Int("rebalance", 0, "occupancy-weighted shard re-cut period in cycles (0 = off; buffered engine, workers > 1)")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *tolerance, *useLabel))
	}
	if *scaling {
		runScaling(*label, *scalingOut, *algo, *pattern, *engine, *dims, *workers,
			*warmup, *measure, *repeat, *seed, *phaseprof, *rebalance, *note)
		return
	}

	var run bench.EngineBenchRun
	first := true
	for _, a := range strings.Split(*algo, ",") {
		for _, tm := range strings.Split(*tmodel, ",") {
			cfg := bench.EngineBenchConfig{
				Algo:    strings.TrimSpace(a),
				Dims:    parseInts(*dims),
				Workers: parseInts(*workers),
				Warmup:  *warmup,
				Measure: *measure,
				Repeat:  *repeat,
				Seed:    *seed,
				Engine:  *engine,
				NoMask:  *nomask,
				NoBatch: *nobatch,
				Traffic: strings.TrimSpace(tm),
				Pattern: *pattern,
			}
			r, err := bench.RunEngineBench(*label, cfg)
			fatal(err)
			if first {
				run = r
				first = false
			} else {
				run.Results = append(run.Results, r.Results...)
			}
		}
	}
	run.Note = *note

	var baseline *bench.EngineBenchRun
	if *out != "" {
		file, err := bench.LoadEngineBench(*out)
		fatal(err)
		for i := range file.Runs {
			if file.Runs[i].Label == *base || (*base == "" && i == 0 && file.Runs[i].Label != *label) {
				baseline = &file.Runs[i]
				break
			}
		}
		fatal(bench.AppendEngineBench(*out, run))
	}
	fmt.Print(bench.FormatEngineBench(run, baseline))
	if *out != "" {
		fmt.Printf("appended run %q to %s\n", *label, *out)
	}
}

// runScaling records one scaling curve per algo listed in algos (each engine
// sweep shares the worker ladder) and appends it to the scaling artifact.
func runScaling(label, out, algos, pattern, engine, dims, workers string,
	warmup, measure int64, repeat int, seed int64, phaseprof bool, rebalance int, note string) {
	sizes := parseInts(dims)
	for _, a := range strings.Split(algos, ",") {
		a = strings.TrimSpace(a)
		// The scaling protocol fixes one workload per curve; with -dims
		// listing several sizes, each size gets its own curve.
		curveDims := sizes
		if len(curveDims) == 0 {
			curveDims = []int{0} // ScalingConfig default for the algo
		}
		for _, d := range curveDims {
			cfg := bench.ScalingConfig{
				Engine:         engine,
				Algo:           a,
				Pattern:        pattern,
				Dims:           d,
				Workers:        parseInts(workers),
				Warmup:         warmup,
				Measure:        measure,
				Repeat:         repeat,
				Seed:           seed,
				PhaseProf:      phaseprof,
				RebalanceEvery: rebalance,
			}
			run, err := bench.RunScaling(label, cfg)
			fatal(err)
			run.Note = note
			if out != "" {
				fatal(bench.AppendScaling(out, run))
			}
			fmt.Print(bench.FormatScaling(run))
			if out != "" {
				fmt.Printf("appended scaling run %q to %s\n", label, out)
			}
		}
	}
}

// runCompare loads two trajectory files, picks one run from each, and
// reports the regressed cells. Exit status: 0 = no regression, 1 =
// regression found, 2 = usage or load error.
func runCompare(args []string, tolerance float64, labels string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "enginebench: -compare needs exactly two trajectory files: old.json new.json")
		return 2
	}
	var oldLabel, newLabel string
	if labels != "" {
		parts := strings.SplitN(labels, ",", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "enginebench: -compare-labels wants \"oldLabel,newLabel\"")
			return 2
		}
		oldLabel, newLabel = parts[0], parts[1]
	}
	baseRun, err := pickRun(args[0], oldLabel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		return 2
	}
	curRun, err := pickRun(args[1], newLabel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		return 2
	}
	regs := bench.CompareEngineBench(baseRun, curRun, tolerance)
	fmt.Printf("compare %q (%s) vs %q (%s), tolerance %.0f%%:\n",
		baseRun.Label, args[0], curRun.Label, args[1], 100*tolerance)
	if len(regs) == 0 {
		fmt.Println("  ok: no cell regressed")
		return 0
	}
	for _, r := range regs {
		fmt.Println("  REGRESSION:", r)
	}
	return 1
}

// pickRun loads a trajectory file and returns the run with the given label,
// or the last recorded run when label is empty.
func pickRun(path, label string) (bench.EngineBenchRun, error) {
	file, err := bench.LoadEngineBench(path)
	if err != nil {
		return bench.EngineBenchRun{}, err
	}
	if len(file.Runs) == 0 {
		return bench.EngineBenchRun{}, fmt.Errorf("%s: no recorded runs", path)
	}
	if label == "" {
		return file.Runs[len(file.Runs)-1], nil
	}
	for i := range file.Runs {
		if file.Runs[i].Label == label {
			return file.Runs[i], nil
		}
	}
	return bench.EngineBenchRun{}, fmt.Errorf("%s: no run labeled %q", path, label)
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		fatal(err)
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(1)
	}
}
