// Engine throughput benchmark: the perf-trajectory harness behind
// BENCH_engine.json. Unlike the table experiments (bench.go), which report
// the paper's observables, this file measures the *simulator itself* —
// cycles per second and delivered packets per second of the buffered engine
// under the paper's λ=1 dynamic random workload — so every PR that touches
// the hot loop can show its delta against the recorded trajectory.
//
// Regenerate with:
//
//	go run ./cmd/enginebench -label <revision> -out BENCH_engine.json
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/buildid"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// EngineBenchConfig selects the grid the engine benchmark sweeps.
type EngineBenchConfig struct {
	// Algo selects the routing algorithm / topology: "hypercube" (default),
	// "mesh", "torus", "shuffle", "ccc", "graph", "dragonfly", "hyperx", or
	// "fattree". Dims is interpreted per algo (hypercube/shuffle/ccc:
	// dimensions; mesh/torus: side of a square; graph: node count of a
	// random 4-regular network, seed 1; dragonfly: routers per group a,
	// with g=2a+1 groups; hyperx: side of a square lattice; fattree:
	// leaves, with spines=leaves/2).
	Algo    string
	Dims    []int  // sizes to sweep (default per Algo)
	Workers []int  // worker counts (default 1 and NumCPU, deduplicated)
	Warmup  int64  // warmup cycles per run (default 100)
	Measure int64  // measured cycles per run (default 400)
	Seed    int64  // simulation seed (default 1)
	Repeat  int    // timed repetitions per cell; the fastest is kept (default 3)
	Engine  string // simulation model: "buffered" (default) or "atomic"
	// NoMask disables the PortMaskRouter fast path (Config.DisablePortMask),
	// giving a same-binary baseline for before/after mask measurements.
	NoMask bool
	// NoBatch disables the batched injection fast path
	// (Config.DisableBatchInject), giving a same-binary baseline for
	// before/after batch-injection measurements.
	NoBatch bool
	// Traffic selects the injection model the cells time: "bernoulli"
	// (default), "mmpp" (bursty, on-rate = the cell's lambda), "trace"
	// (record one bernoulli run per cell to a temporary JSONL, then time
	// its replay), or "perm" (bernoulli attempts over a fixed seeded
	// random permutation — the adversarial-search workload shape).
	Traffic string
	// Pattern is the spec.Pattern destination pattern the sources draw from:
	// "random" (default), "complement", "transpose", "leveled", ...
	Pattern string
}

func (c *EngineBenchConfig) fill() {
	if c.Algo == "" {
		c.Algo = "hypercube"
	}
	if c.Pattern == "" {
		c.Pattern = "random"
	}
	if len(c.Dims) == 0 {
		switch c.Algo {
		case "mesh", "torus":
			c.Dims = []int{16, 24, 32}
		case "shuffle":
			c.Dims = []int{10, 12, 14}
		case "ccc":
			c.Dims = []int{6, 7, 8}
		case "graph":
			c.Dims = []int{128, 256, 512}
		case "dragonfly":
			c.Dims = []int{4, 6, 8}
		case "hyperx":
			c.Dims = []int{8, 12, 16}
		case "fattree":
			c.Dims = []int{16, 24, 32}
		default:
			c.Dims = []int{8, 10, 12}
		}
	}
	if c.Engine == "" {
		c.Engine = "buffered"
	}
	if c.Engine == "atomic" {
		// Atomic semantics are inherently sequential; extra worker cells
		// would just duplicate the workers=1 measurement.
		c.Workers = []int{1}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, runtime.NumCPU()}
	}
	seen := map[int]bool{}
	uniq := c.Workers[:0]
	for _, w := range c.Workers {
		if w >= 1 && !seen[w] {
			seen[w] = true
			uniq = append(uniq, w)
		}
	}
	c.Workers = uniq
	if c.Warmup == 0 {
		c.Warmup = 100
	}
	if c.Measure == 0 {
		c.Measure = 400
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Repeat == 0 {
		c.Repeat = 3
	}
}

// EngineBenchResult is one cell of the sweep: one (dims, workers) pair.
// Each cell is timed twice — once with observability off and once with the
// metrics core enabled (Config.Metrics, no observer) — so the trajectory
// tracks the instrumentation overhead across revisions.
type EngineBenchResult struct {
	// Engine is the simulation model the cell timed; empty in runs recorded
	// before the benchmark covered the atomic engine (implying "buffered").
	Engine string `json:"engine,omitempty"`
	// Algo is the routing algorithm the cell timed; empty in runs recorded
	// before the benchmark covered non-hypercube topologies (implying
	// "hypercube").
	Algo string `json:"algo,omitempty"`
	// NoMask marks cells timed with the port-mask fast path disabled
	// (baseline cells of a before/after mask measurement).
	NoMask bool `json:"nomask,omitempty"`
	// NoBatch marks cells timed with the batched injection fast path
	// disabled (baseline cells of a before/after batch-injection
	// measurement).
	NoBatch bool `json:"nobatch,omitempty"`
	// Traffic is the injection model the cell timed; empty in runs recorded
	// before the benchmark covered non-Bernoulli models (implying
	// "bernoulli").
	Traffic string `json:"traffic,omitempty"`
	// Pattern is the destination pattern the cell timed; empty means
	// "random" (every run recorded before the benchmark took a pattern).
	Pattern      string  `json:"pattern,omitempty"`
	Dims         int     `json:"dims"`
	Nodes        int     `json:"nodes"`
	Workers      int     `json:"workers"`
	Cycles       int64   `json:"cycles"`
	Delivered    int64   `json:"delivered"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	PktsPerSec   float64 `json:"pkts_per_sec"`
	// CyclesPerSecObs is the same workload with the metrics core enabled
	// (0 in runs recorded before the observability layer existed).
	CyclesPerSecObs float64 `json:"cycles_per_sec_obs,omitempty"`
}

// ObsOverheadPct returns the relative slowdown of the with-metrics run in
// percent (negative = faster), or 0 when the pair was not recorded.
func (r *EngineBenchResult) ObsOverheadPct() float64 {
	if r.CyclesPerSecObs == 0 || r.CyclesPerSec == 0 {
		return 0
	}
	return 100 * (r.CyclesPerSec - r.CyclesPerSecObs) / r.CyclesPerSec
}

// EngineBenchRun is one labeled sweep (one revision of the engine).
type EngineBenchRun struct {
	Label      string `json:"label"`
	Date       string `json:"date"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// BuildID is the VCS revision of the binary that recorded the run
	// ("dev" under go run/test of a non-VCS tree; empty in runs recorded
	// before the field existed).
	BuildID string `json:"build_id,omitempty"`
	// Note carries free-form context for cross-run comparisons (e.g. "host
	// slower than previous runs; compare against a same-day baseline").
	Note    string              `json:"note,omitempty"`
	Results []EngineBenchResult `json:"results"`
}

// EngineBenchFile is the trajectory artifact: one run appended per revision
// that touches the engine, oldest first.
type EngineBenchFile struct {
	Benchmark string           `json:"benchmark"`
	Runs      []EngineBenchRun `json:"runs"`
}

// engineBenchWorkload names the fixed workload so the artifact is
// self-describing.
const engineBenchWorkload = "dynamic random traffic, queue cap 5; per-algo injection rates: hypercube lambda=1, mesh 0.08, torus 0.2, shuffle 0.02, ccc 0.04, graph 0.05, dragonfly 0.1, hyperx 0.1, fattree 0.1 (the extended-suite rates); engine buffered or atomic per cell"

// benchAlgorithm constructs the algorithm for one cell. size follows the
// algo's natural parameter: dimensions for hypercube/shuffle/ccc, the side
// of a square for mesh/torus.
func benchAlgorithm(algo string, size int) (core.Algorithm, error) {
	switch algo {
	case "hypercube":
		return core.NewHypercubeAdaptive(size), nil
	case "mesh":
		return core.NewMeshAdaptive(size, size), nil
	case "torus":
		return core.NewTorusAdaptive(size, size), nil
	case "shuffle":
		return core.NewShuffleExchangeAdaptive(size), nil
	case "ccc":
		return core.NewCCCAdaptive(size), nil
	case "graph":
		t, err := topology.NewRandomRegular(size, 4, 1)
		if err != nil {
			return nil, err
		}
		return core.NewGraphAdaptive(t)
	case "dragonfly":
		t, err := topology.NewDragonfly(size, 2*size+1)
		if err != nil {
			return nil, err
		}
		return core.NewGraphAdaptive(t)
	case "hyperx":
		t, err := topology.NewHyperX(size, size)
		if err != nil {
			return nil, err
		}
		return core.NewGraphAdaptive(t)
	case "fattree":
		t, err := topology.NewFatTree(size, size/2)
		if err != nil {
			return nil, err
		}
		return core.NewGraphAdaptive(t)
	}
	return nil, fmt.Errorf("bench: unknown algo %q (want hypercube, mesh, torus, shuffle, ccc, graph, dragonfly, hyperx, or fattree)", algo)
}

// benchLambda is the per-node injection probability for one cell — the
// extended-suite rates, so the benchmark load matches what the sweep
// wall-clock actually pays (and stays below each topology's saturation
// point; λ=1 would saturate or even deadlock-abort the weaker networks).
func benchLambda(algo string) float64 {
	switch algo {
	case "mesh":
		return 0.08
	case "torus":
		return 0.2
	case "shuffle":
		return 0.02
	case "ccc":
		return 0.04
	case "graph":
		return 0.05
	case "dragonfly":
		return 0.1
	case "hyperx":
		return 0.1
	case "fattree":
		return 0.1
	}
	return 1.0
}

// RunEngineBench executes the sweep and returns the labeled run.
func RunEngineBench(label string, cfg EngineBenchConfig) (EngineBenchRun, error) {
	cfg.fill()
	run := EngineBenchRun{
		Label:      label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		BuildID:    buildid.ID(),
	}
	for _, dims := range cfg.Dims {
		for _, workers := range cfg.Workers {
			res, err := engineBenchCell(dims, workers, cfg)
			if err != nil {
				return run, fmt.Errorf("bench: engine=%s algo=%s dims=%d workers=%d: %w", cfg.Engine, cfg.Algo, dims, workers, err)
			}
			run.Results = append(run.Results, res)
		}
	}
	return run, nil
}

// engineBenchCell times one (dims, workers) cell, keeping the fastest of
// cfg.Repeat repetitions. The simulation itself is deterministic, so
// repetitions only shake out scheduling and cache noise. The cell is timed
// again with the metrics core enabled to record instrumentation overhead.
func engineBenchCell(dims, workers int, cfg EngineBenchConfig) (EngineBenchResult, error) {
	algo, err := benchAlgorithm(cfg.Algo, dims)
	if err != nil {
		return EngineBenchResult{}, err
	}
	nodes := algo.Topology().Nodes()
	lambda := benchLambda(cfg.Algo)
	newSource, cleanup, err := benchSource(cfg, algo, nodes, lambda, workers)
	if err != nil {
		return EngineBenchResult{}, err
	}
	defer cleanup()
	best := EngineBenchResult{
		Engine: cfg.Engine, Algo: cfg.Algo, NoMask: cfg.NoMask, NoBatch: cfg.NoBatch,
		Traffic: cfg.Traffic, Pattern: recordedPattern(cfg.Pattern),
		Dims: dims, Nodes: nodes, Workers: workers,
	}
	for _, withObs := range []bool{false, true} {
		eng, err := sim.NewSimulator(cfg.Engine, sim.Config{
			Algorithm:          algo,
			Seed:               cfg.Seed,
			Workers:            workers,
			Metrics:            withObs,
			DisablePortMask:    cfg.NoMask,
			DisableBatchInject: cfg.NoBatch,
		})
		if err != nil {
			return EngineBenchResult{}, err
		}
		for rep := 0; rep < cfg.Repeat; rep++ {
			src, err := newSource()
			if err != nil {
				return EngineBenchResult{}, err
			}
			start := time.Now()
			res, err := eng.Run(nil, src, sim.DynamicPlan(cfg.Warmup, cfg.Measure))
			if err != nil {
				return EngineBenchResult{}, err
			}
			m := res.Metrics
			el := time.Since(start).Seconds()
			if withObs {
				if cps := float64(m.Cycles) / el; rep == 0 || cps > best.CyclesPerSecObs {
					best.CyclesPerSecObs = cps
				}
			} else if rep == 0 || el < best.ElapsedSec {
				best.Cycles = m.Cycles
				best.Delivered = m.Delivered
				best.ElapsedSec = el
				best.CyclesPerSec = float64(m.Cycles) / el
				best.PktsPerSec = float64(m.Delivered) / el
			}
		}
	}
	return best, nil
}

// benchSource returns a factory producing a fresh, deterministic traffic
// source per repetition for cfg.Traffic, plus a cleanup for any artifacts.
// The "trace" model pays its recording cost once here, outside the timed
// region: a bernoulli run of the same shape is recorded to a temporary
// JSONL, and every repetition times a replay of that file.
func benchSource(cfg EngineBenchConfig, algo core.Algorithm, nodes int, lambda float64, workers int) (func() (sim.TrafficSource, error), func(), error) {
	nop := func() {}
	pat, err := spec.Pattern(cfg.Pattern, algo, cfg.Seed)
	if err != nil {
		return nil, nop, err
	}
	switch cfg.Traffic {
	case "", "bernoulli":
		return func() (sim.TrafficSource, error) {
			return traffic.NewBernoulliSource(pat, nodes, lambda, cfg.Seed+2), nil
		}, nop, nil
	case "mmpp":
		return func() (sim.TrafficSource, error) {
			return traffic.NewMMPP(pat, nodes, lambda, 0.05*lambda, 0.1, 0.1, cfg.Seed+2), nil
		}, nop, nil
	case "perm":
		sigma := make([]int32, nodes)
		rng := xrand.New(cfg.Seed+3, 0)
		rng.Perm(sigma)
		perm := &traffic.Permutation{Label: "bench-perm", Sigma: sigma}
		return func() (sim.TrafficSource, error) {
			return traffic.NewBernoulliSource(perm, nodes, lambda, cfg.Seed+2), nil
		}, nop, nil
	case "trace":
		f, err := os.CreateTemp("", "enginebench-*.jsonl")
		if err != nil {
			return nil, nop, err
		}
		path := f.Name()
		cleanup := func() { os.Remove(path) }
		rec := &traffic.RecordingSource{
			Inner: traffic.NewBernoulliSource(pat, nodes, lambda, cfg.Seed+2),
			Cap:   1,
			W:     f,
		}
		eng, err := sim.NewSimulator(cfg.Engine, sim.Config{Algorithm: algo, Seed: cfg.Seed, Workers: workers})
		if err == nil {
			_, err = eng.Run(nil, rec, sim.DynamicPlan(cfg.Warmup, cfg.Measure))
		}
		if err == nil {
			err = rec.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			cleanup()
			return nil, nop, err
		}
		return func() (sim.TrafficSource, error) {
			tf, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			return traffic.NewTraceSource(tf, nodes), nil
		}, cleanup, nil
	}
	return nil, nop, fmt.Errorf("bench: unknown traffic model %q (want bernoulli, mmpp, trace, or perm)", cfg.Traffic)
}

// LoadEngineBench reads a trajectory file; a missing file yields an empty
// trajectory so the first run bootstraps it.
func LoadEngineBench(path string) (EngineBenchFile, error) {
	f := EngineBenchFile{Benchmark: engineBenchWorkload}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("bench: %s: %w", path, err)
	}
	return f, nil
}

// AppendEngineBench appends run to the trajectory at path, replacing any
// existing run with the same label (so re-running a revision updates it in
// place rather than duplicating the entry).
func AppendEngineBench(path string, run EngineBenchRun) error {
	f, err := LoadEngineBench(path)
	if err != nil {
		return err
	}
	f.Benchmark = engineBenchWorkload
	replaced := false
	for i := range f.Runs {
		if f.Runs[i].Label == run.Label {
			f.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		f.Runs = append(f.Runs, run)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// engineOf normalizes the engine name of a recorded cell: cells from before
// the benchmark covered the atomic engine carry no name and mean "buffered".
func engineOf(r *EngineBenchResult) string {
	if r.Engine == "" {
		return "buffered"
	}
	return r.Engine
}

// algoOf normalizes the algorithm name of a recorded cell: cells from before
// the benchmark covered non-hypercube topologies carry no name and mean
// "hypercube".
func algoOf(r *EngineBenchResult) string {
	if r.Algo == "" {
		return "hypercube"
	}
	return r.Algo
}

// trafficOf normalizes the traffic model of a recorded cell: cells from
// before the benchmark covered non-Bernoulli models carry no name and mean
// "bernoulli".
func trafficOf(r *EngineBenchResult) string {
	if r.Traffic == "" {
		return "bernoulli"
	}
	return r.Traffic
}

// recordedPattern is the artifact form of a destination pattern: "random",
// the only pattern older records could have timed, is left out.
func recordedPattern(p string) string {
	if p == "random" {
		return ""
	}
	return p
}

// matchCell returns the cell of run with the same (engine, algo, traffic,
// pattern, dims, workers) coordinates as r, or nil. NoMask and NoBatch are
// deliberately not part of the key: a fast-path run compared against a
// -nomask or -nobatch baseline run is exactly the before/after measurement
// those flags exist for.
func matchCell(run *EngineBenchRun, r *EngineBenchResult) *EngineBenchResult {
	for i := range run.Results {
		b := &run.Results[i]
		if engineOf(b) == engineOf(r) && algoOf(b) == algoOf(r) && trafficOf(b) == trafficOf(r) &&
			b.Pattern == r.Pattern && b.Dims == r.Dims && b.Workers == r.Workers {
			return b
		}
	}
	return nil
}

// FormatEngineBench renders a run as an aligned table, with per-cell
// speedups against a baseline run when one is supplied.
func FormatEngineBench(run EngineBenchRun, baseline *EngineBenchRun) string {
	s := fmt.Sprintf("engine bench %q (%s, ncpu=%d)\n", run.Label, run.Date, run.NumCPU)
	s += "   engine      algo   traffic dims   nodes workers |   cycles/s     pkts/s  obs-ovh"
	if baseline != nil {
		s += " | vs " + baseline.Label
	}
	s += "\n"
	for i := range run.Results {
		r := &run.Results[i]
		s += fmt.Sprintf(" %8s %9s %9s   %2d %7d %7d | %10.1f %10.1f  %+6.1f%%",
			engineOf(r), algoOf(r), trafficOf(r), r.Dims, r.Nodes, r.Workers, r.CyclesPerSec, r.PktsPerSec, r.ObsOverheadPct())
		if baseline != nil {
			if b := matchCell(baseline, r); b != nil && b.CyclesPerSec > 0 {
				s += fmt.Sprintf(" | %5.2fx", r.CyclesPerSec/b.CyclesPerSec)
			}
		}
		s += "\n"
	}
	return s
}

// EngineBenchRegression is one cell of a trajectory comparison whose
// throughput fell below the tolerated fraction of the baseline.
type EngineBenchRegression struct {
	Engine       string
	Algo         string
	Dims         int
	Workers      int
	BaselineCPS  float64
	CurrentCPS   float64
	RelativeLoss float64 // fraction of baseline throughput lost (0.10 = -10%)
}

func (r EngineBenchRegression) String() string {
	return fmt.Sprintf("%s %s dims=%d workers=%d: %.1f -> %.1f cycles/s (%.1f%% regression)",
		r.Engine, r.Algo, r.Dims, r.Workers, r.BaselineCPS, r.CurrentCPS, 100*r.RelativeLoss)
}

// CompareEngineBench compares the matching cells of two runs and returns the
// cells of cur that regressed by more than tolerance (a fraction: 0.10
// tolerates a 10% slowdown). Cells without a matching baseline coordinate
// are skipped; the comparison gates the CI "sequential path unchanged"
// criterion, so only cycles/s (not the noisier obs pair) is judged.
func CompareEngineBench(base, cur EngineBenchRun, tolerance float64) []EngineBenchRegression {
	var regs []EngineBenchRegression
	for i := range cur.Results {
		r := &cur.Results[i]
		b := matchCell(&base, r)
		if b == nil || b.CyclesPerSec <= 0 || r.CyclesPerSec <= 0 {
			continue
		}
		loss := (b.CyclesPerSec - r.CyclesPerSec) / b.CyclesPerSec
		if loss > tolerance {
			regs = append(regs, EngineBenchRegression{
				Engine:       engineOf(r),
				Algo:         algoOf(r),
				Dims:         r.Dims,
				Workers:      r.Workers,
				BaselineCPS:  b.CyclesPerSec,
				CurrentCPS:   r.CyclesPerSec,
				RelativeLoss: loss,
			})
		}
	}
	return regs
}
