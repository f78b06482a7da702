// Command tables regenerates the paper's Tables 1-12 (Section 7) and prints
// every row next to the published value.
//
// Usage:
//
//	tables [-table tableK] [-maxn 14] [-seed 1] [-cap 5] [-algo adaptive]
//	       [-warmup 500] [-measure 1500] [-policy first-free]
//	       [-jobs 4] [-budget 8] [-cache results.jsonl] [-progress]
//	       [-score score.txt]
//
// The sweep runs through the internal/sweep orchestrator: cells are
// scheduled longest-first onto -jobs concurrent slots sharing a -budget
// worker pool. -cache FILE keeps every completed cell in the result store
// at FILE (internal/store) and serves the cells FILE already holds, so a
// killed sweep picks up where it left off and a repeated one simulates
// nothing; routesimd -cache reads and writes the same file. A fresh start
// is a fresh file. The full sweep up to n=14 (16K nodes) takes a few
// minutes, dominated by the dynamic (λ=1) experiments — run it with -jobs
// set to the core count; -maxn 12 already shows every trend.
//
// Table output is written to stdout and is bit-identical for any -jobs
// value, with or without -cache, and across a kill and rerun; timings and
// -progress status lines go to stderr so stdout stays clean for diffing.
// -score FILE writes bench.Score of the same run to FILE: how far each paper
// table's rows land from the published ones (tables_score.txt is the
// -maxn 14 run's).
//
// Exit codes: 0 success, 1 simulation error, 2 usage, 3 stopped early by
// -stop-after (the -cache file holds the completed cells).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		table     = flag.String("table", "", "run a single experiment (table1..table12 or an ext-* id); default all")
		suite     = flag.String("suite", "paper", "experiment suite: paper (Tables 1-12) | extended (mesh/torus/shuffle/CCC) | all")
		maxN      = flag.Int("maxn", 14, "largest hypercube dimension to simulate")
		seed      = flag.Int64("seed", 1, "simulation seed")
		cap_      = flag.Int("cap", 5, "central queue capacity (paper: 5)")
		algo      = flag.String("algo", "adaptive", "algorithm variant: adaptive|hung|ecube")
		warmup    = flag.Int64("warmup", 500, "dynamic runs: warmup cycles")
		measure   = flag.Int64("measure", 1500, "dynamic runs: measured cycles")
		policy    = flag.String("policy", "first-free", "selection policy: first-free|random|static-first|last-free")
		workers   = flag.Int("workers", 0, fmt.Sprintf("force this many workers per simulation (0 = let the scheduler split -budget by cost, at most one worker per %d nodes)", exec.NodesPerWorker))
		engine    = flag.String("engine", "buffered", "simulation model: buffered (paper's node model) | buffered:vct (the same with virtual cut-through) | atomic (Section 2)")
		jobs      = flag.Int("jobs", 1, "concurrent experiment cells")
		budget    = flag.Int("budget", 0, "total worker budget across cells (0 = GOMAXPROCS)")
		progress  = flag.Bool("progress", false, "live per-cell status with ETA on stderr")
		stopAfter = flag.Int("stop-after", 0, "stop (exit 3) after completing this many cells; for kill-and-rerun testing with -cache")
		cache     = flag.String("cache", "", "result store file: completed cells are kept here and cells it already holds are not simulated again (same seed/options/build only; shared with routesimd -cache)")
		score     = flag.String("score", "", "also write to this file the mean relative error of L_avg, L_max and I_r against the paper's rows, per table and overall")
		tmodel    = flag.String("traffic", "", "override the injection model of dynamic cells for ablations: mmpp[:...]|onoff[:...] (default: the paper's Bernoulli process); static cells are unaffected")
	)
	flag.Parse()

	opt := bench.Options{
		Seed:      *seed,
		QueueCap:  *cap_,
		Warmup:    *warmup,
		Measure:   *measure,
		Algorithm: *algo,
		Engine:    *engine,
		Traffic:   *tmodel,
	}
	p, err := sim.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		return 2
	}
	opt.Policy = p
	if *engine == "atomic" && *workers > 1 {
		// The RunSpec path rejects this combination rather than silently
		// ignoring Workers; surface the same rule at the flag layer.
		fmt.Fprintln(os.Stderr, "tables: -workers > 1 with -engine atomic: the atomic engine is inherently sequential; drop -workers or use -engine buffered")
		return 2
	}

	jobList, err := sweep.BuildJobs(*suite, *table, *maxN, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *budget == 0 {
		*budget = runtime.GOMAXPROCS(0)
	}
	so := sweep.Options{
		Jobs:         *jobs,
		Budget:       *budget,
		FixedWorkers: *workers,
		StopAfter:    *stopAfter,
	}
	if *progress {
		so.Sink = obs.NewSweepProgress(os.Stderr)
	}
	if *cache != "" {
		if so.Store, err = store.Open(*cache, store.Options{}); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	results, err := sweep.Run(ctx, jobList, opt, so)
	wall := time.Since(start)
	if so.Store != nil {
		if cerr := so.Store.Close(); err == nil {
			err = cerr
		}
	}
	switch {
	case errors.Is(err, sweep.ErrStopped):
		fmt.Fprintf(os.Stderr, "tables: stopped after %d cells; rerun with the same -cache to continue\n", *stopAfter)
		return 3
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "tables: interrupted; rerun with the same -cache to continue")
		return 1
	case err != nil:
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		return 1
	}

	tables := groupResults(results)
	for _, tb := range tables {
		fmt.Print(tb.Exp.Format(tb.Rows))
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "tables: %d cells in %s\n", len(results), wall.Round(time.Millisecond))
	if *score != "" {
		if err := os.WriteFile(*score, []byte(bench.Score(tables)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			return 1
		}
	}
	return 0
}

// groupResults gathers the merged results into one table per experiment,
// rows in the order the sequential loop produced them. Results arrive
// indexed by Seq, so the grouping is a single pass.
func groupResults(results []sweep.Result) []bench.Table {
	var tables []bench.Table
	for i := 0; i < len(results); {
		j := i
		for j < len(results) && results[j].Job.Exp == results[i].Job.Exp {
			j++
		}
		ex, err := bench.Find(results[i].Job.Exp)
		if err == nil {
			tb := bench.Table{Exp: ex}
			for _, r := range results[i:j] {
				tb.Rows = append(tb.Rows, r.Row)
			}
			tables = append(tables, tb)
		}
		i = j
	}
	return tables
}
