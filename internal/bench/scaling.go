// Multi-core scaling benchmark: the measurement protocol behind
// BENCH_scaling.json. Where BENCH_engine.json tracks absolute throughput
// across revisions, this file answers a different question — how throughput
// changes with the worker count on one host — so the artifact records the
// full parallel-efficiency curve (speedup vs workers=1, per worker count)
// plus the per-phase wall-clock breakdown that explains where the speedup
// stops.
//
// Regenerate with:
//
//	go run ./cmd/enginebench -scaling -label <revision>
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/buildid"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/traffic"
)

// ScalingConfig selects one scaling measurement: a single (engine, algo,
// dims) workload swept over a list of worker counts.
type ScalingConfig struct {
	Engine  string // "buffered" (default) or "atomic"
	Algo    string // benchAlgorithm selector (default "hypercube")
	Dims    int    // per-algo size (default: largest of the engine-bench defaults)
	Pattern string // spec.Pattern destination pattern (default "random")
	Workers []int  // worker counts (default 1, 2, 4, ... doubling, plus GOMAXPROCS)
	Warmup  int64  // warmup cycles per run (default 100)
	Measure int64  // measured cycles per run (default 400)
	Seed    int64  // simulation seed (default 1)
	Repeat  int    // timed repetitions per point; the fastest is kept (default 3)
	// PhaseProf additionally times each point's phases (a separate, slower
	// pass; the headline cycles/s never pays the timer overhead).
	PhaseProf bool
	// RebalanceEvery forwards sim.Config.RebalanceEvery to every point.
	RebalanceEvery int
}

// defaultScalingWorkers is the protocol's worker-count ladder: powers of two
// up to GOMAXPROCS, plus GOMAXPROCS itself when it is not a power of two.
func defaultScalingWorkers() []int {
	maxw := runtime.GOMAXPROCS(0)
	var ws []int
	for w := 1; w <= maxw; w *= 2 {
		ws = append(ws, w)
	}
	if len(ws) == 0 || ws[len(ws)-1] != maxw {
		ws = append(ws, maxw)
	}
	return ws
}

func (c *ScalingConfig) fill() {
	if c.Engine == "" {
		c.Engine = "buffered"
	}
	if c.Algo == "" {
		c.Algo = "hypercube"
	}
	if c.Pattern == "" {
		c.Pattern = "random"
	}
	if c.Dims == 0 {
		switch c.Algo {
		case "mesh", "torus":
			c.Dims = 32
		case "shuffle":
			c.Dims = 14
		case "ccc":
			c.Dims = 8
		default:
			c.Dims = 12
		}
	}
	if c.Engine == "atomic" {
		// Atomic semantics are inherently sequential (Workers is ignored), so
		// the curve has exactly one point; recording more would present copies
		// of the same measurement as a scaling curve.
		c.Workers = []int{1}
	}
	if len(c.Workers) == 0 {
		c.Workers = defaultScalingWorkers()
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

// PhaseBreakdown is the serialized form of sim.PhaseTimes.
type PhaseBreakdown struct {
	InjectNs int64 `json:"inject_ns"`
	PhaseANs int64 `json:"phase_a_ns"`
	PhaseBNs int64 `json:"phase_b_ns"`
	LinkNs   int64 `json:"link_ns"`
	MergeNs  int64 `json:"merge_ns"`
	OtherNs  int64 `json:"other_ns"`
	Cycles   int64 `json:"cycles"`
	// Moves is the profiled run's packet-move count, so the phase times read
	// as a cost per move as well as per node-cycle.
	Moves int64 `json:"moves,omitempty"`
}

// ScalingPoint is one worker count's measurement on the curve.
type ScalingPoint struct {
	Workers      int     `json:"workers"`
	Cycles       int64   `json:"cycles,omitempty"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	PktsPerSec   float64 `json:"pkts_per_sec,omitempty"`
	// Speedup is throughput relative to the run's workers=1 point;
	// Efficiency is Speedup/Workers (1.0 = perfect linear scaling).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// Phases is the per-phase wall-clock breakdown from a separate PhaseProf
	// pass (nil unless requested; the timed pass never carries the timers).
	Phases *PhaseBreakdown `json:"phases,omitempty"`
}

// ScalingRun is one recorded scaling curve.
type ScalingRun struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	// Kind is "engine": cycles/s of one simulator workload vs Workers.
	Kind           string         `json:"kind"`
	Engine         string         `json:"engine"`
	Algo           string         `json:"algo,omitempty"`
	Pattern        string         `json:"pattern,omitempty"` // empty = random
	Dims           int            `json:"dims,omitempty"`
	Nodes          int            `json:"nodes,omitempty"`
	NumCPU         int            `json:"num_cpu"`
	GoMaxProcs     int            `json:"gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	BuildID        string         `json:"build_id,omitempty"`
	RebalanceEvery int            `json:"rebalance_every,omitempty"`
	Warmup         int64          `json:"warmup,omitempty"`
	Measure        int64          `json:"measure,omitempty"`
	Seed           int64          `json:"seed,omitempty"`
	Note           string         `json:"note,omitempty"`
	Points         []ScalingPoint `json:"points"`
}

// ScalingFile is the BENCH_scaling.json artifact: one run per recorded
// curve, replaced in place when a curve with the same coordinates is
// re-measured under the same label.
type ScalingFile struct {
	Benchmark string       `json:"benchmark"`
	Runs      []ScalingRun `json:"runs"`
}

const scalingWorkload = "throughput vs worker count on one host: cycles/s of a fixed dynamic workload per sim.Config.Workers; speedup is relative to the curve's workers=1 point"

// hostStamp fills the host/build metadata every scaling record carries.
func (r *ScalingRun) hostStamp() {
	r.Date = time.Now().UTC().Format("2006-01-02")
	r.NumCPU = runtime.NumCPU()
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	r.GoVersion = runtime.Version()
	r.BuildID = buildid.ID()
}

// finishCurve derives the speedup/efficiency columns from the recorded
// throughputs, against the curve's workers=1 point (or its first point when
// no workers=1 measurement exists).
func finishCurve(points []ScalingPoint) {
	if len(points) == 0 {
		return
	}
	base := points[0]
	for _, p := range points {
		if p.Workers == 1 {
			base = p
			break
		}
	}
	for i := range points {
		p := &points[i]
		if base.CyclesPerSec == 0 || p.Workers == 0 {
			continue
		}
		p.Speedup = p.CyclesPerSec / base.CyclesPerSec
		p.Efficiency = p.Speedup / float64(p.Workers)
	}
}

// RunScaling measures one scaling curve: each worker count is timed like an
// engine-bench cell (fastest of Repeat repetitions, metrics off), and — when
// cfg.PhaseProf asks for it — profiled once more with per-phase timers so the
// curve carries its own bottleneck explanation.
func RunScaling(label string, cfg ScalingConfig) (ScalingRun, error) {
	cfg.fill()
	algo, err := benchAlgorithm(cfg.Algo, cfg.Dims)
	if err != nil {
		return ScalingRun{}, err
	}
	nodes := algo.Topology().Nodes()
	lambda := benchLambda(cfg.Algo)
	pat, err := spec.Pattern(cfg.Pattern, algo, cfg.Seed)
	if err != nil {
		return ScalingRun{}, err
	}
	run := ScalingRun{
		Label: label, Kind: "engine", Pattern: recordedPattern(cfg.Pattern),
		Engine: cfg.Engine, Algo: cfg.Algo, Dims: cfg.Dims, Nodes: nodes,
		RebalanceEvery: cfg.RebalanceEvery,
		Warmup:         cfg.Warmup, Measure: cfg.Measure, Seed: cfg.Seed,
	}
	run.hostStamp()
	for _, workers := range cfg.Workers {
		pt := ScalingPoint{Workers: workers}
		for rep := 0; rep < cfg.Repeat; rep++ {
			eng, err := sim.NewSimulator(cfg.Engine, sim.Config{
				Algorithm:      algo,
				Seed:           cfg.Seed,
				Workers:        workers,
				RebalanceEvery: cfg.RebalanceEvery,
			})
			if err != nil {
				return run, err
			}
			src := traffic.NewBernoulliSource(pat, nodes, lambda, cfg.Seed+2)
			start := time.Now()
			res, err := eng.Run(nil, src, sim.DynamicPlan(cfg.Warmup, cfg.Measure))
			if err != nil {
				return run, fmt.Errorf("bench: scaling engine=%s algo=%s dims=%d workers=%d: %w",
					cfg.Engine, cfg.Algo, cfg.Dims, workers, err)
			}
			el := time.Since(start).Seconds()
			m := res.Metrics
			if rep == 0 || el < pt.ElapsedSec {
				pt.Cycles = m.Cycles
				pt.ElapsedSec = el
				pt.CyclesPerSec = float64(m.Cycles) / el
				pt.PktsPerSec = float64(m.Delivered) / el
			}
		}
		if cfg.PhaseProf {
			eng, err := sim.NewSimulator(cfg.Engine, sim.Config{
				Algorithm:      algo,
				Seed:           cfg.Seed,
				Workers:        workers,
				RebalanceEvery: cfg.RebalanceEvery,
				PhaseProf:      true,
			})
			if err != nil {
				return run, err
			}
			src := traffic.NewBernoulliSource(pat, nodes, lambda, cfg.Seed+2)
			res, err := eng.Run(nil, src, sim.DynamicPlan(cfg.Warmup, cfg.Measure))
			if err != nil {
				return run, fmt.Errorf("bench: scaling phaseprof workers=%d: %w", workers, err)
			}
			t := eng.PhaseTimes()
			pt.Phases = &PhaseBreakdown{
				InjectNs: t.InjectNs, PhaseANs: t.PhaseANs, PhaseBNs: t.PhaseBNs,
				LinkNs: t.LinkNs, MergeNs: t.MergeNs, OtherNs: t.OtherNs,
				Cycles: t.Cycles, Moves: res.Metrics.Moves,
			}
		}
		run.Points = append(run.Points, pt)
	}
	finishCurve(run.Points)
	return run, nil
}

// LoadScaling reads a scaling artifact; a missing file yields an empty one
// so the first run bootstraps it.
func LoadScaling(path string) (ScalingFile, error) {
	f := ScalingFile{Benchmark: scalingWorkload}
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

// sameCurve reports whether two runs describe the same curve coordinates
// (so re-measuring replaces the record instead of duplicating it).
func sameCurve(a, b *ScalingRun) bool {
	return a.Label == b.Label && a.Kind == b.Kind && a.Engine == b.Engine &&
		a.Algo == b.Algo && a.Pattern == b.Pattern && a.Dims == b.Dims &&
		a.RebalanceEvery == b.RebalanceEvery
}

// AppendScaling appends run to the artifact at path, replacing any existing
// run with the same curve coordinates.
func AppendScaling(path string, run ScalingRun) error {
	f, err := LoadScaling(path)
	if err != nil {
		return err
	}
	f.Benchmark = scalingWorkload
	replaced := false
	for i := range f.Runs {
		if sameCurve(&f.Runs[i], &run) {
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

// FormatScaling renders one curve as an aligned table, with the phase
// breakdown when recorded: percentages of the profiled run's total, then
// nanoseconds per node-cycle by phase and packet moves per node-cycle.
func FormatScaling(run ScalingRun) string {
	s := fmt.Sprintf("scaling %q kind=%s engine=%s algo=%s dims=%d nodes=%d",
		run.Label, run.Kind, run.Engine, run.Algo, run.Dims, run.Nodes)
	if run.Pattern != "" {
		s += " pattern=" + run.Pattern
	}
	s += fmt.Sprintf(" (ncpu=%d gomaxprocs=%d", run.NumCPU, run.GoMaxProcs)
	if run.RebalanceEvery > 0 {
		s += fmt.Sprintf(" rebalance=%d", run.RebalanceEvery)
	}
	s += ")\n workers | throughput/s  speedup  efficiency"
	hasPhases := false
	for i := range run.Points {
		if run.Points[i].Phases != nil {
			hasPhases = true
		}
	}
	if hasPhases {
		s += " | inject% a% b% link% merge% other% | ns/node-cycle: inject a b link  moves/node-cycle"
	}
	s += "\n"
	for i := range run.Points {
		p := &run.Points[i]
		s += fmt.Sprintf(" %7d | %12.1f  %6.2fx  %9.2f", p.Workers, p.CyclesPerSec, p.Speedup, p.Efficiency)
		if ph := p.Phases; ph != nil {
			total := ph.InjectNs + ph.PhaseANs + ph.PhaseBNs + ph.LinkNs + ph.MergeNs + ph.OtherNs
			if total > 0 {
				pc := func(v int64) float64 { return 100 * float64(v) / float64(total) }
				s += fmt.Sprintf(" | %6.1f %4.1f %4.1f %5.1f %6.1f %6.1f",
					pc(ph.InjectNs), pc(ph.PhaseANs), pc(ph.PhaseBNs),
					pc(ph.LinkNs), pc(ph.MergeNs), pc(ph.OtherNs))
			}
			if nc := float64(ph.Cycles) * float64(run.Nodes); nc > 0 {
				s += fmt.Sprintf(" | %20.1f %5.1f %5.1f %5.1f  %8.2f", float64(ph.InjectNs)/nc,
					float64(ph.PhaseANs)/nc, float64(ph.PhaseBNs)/nc, float64(ph.LinkNs)/nc, float64(ph.Moves)/nc)
			}
		}
		s += "\n"
	}
	return s
}
