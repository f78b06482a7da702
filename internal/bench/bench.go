// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 7): one Experiment per published table, carrying the
// paper's reported numbers so runs print paper-vs-measured side by side.
//
// All twelve tables simulate the fully-adaptive hypercube algorithm with
// injection queue size 1 and central queue capacity 5, across hypercube
// dimensions 10-14 (1K-16K nodes); Table 12 additionally reports n=9.
// Static experiments inject 1 or n packets per node and drain; dynamic
// experiments run a Bernoulli λ=1 process and measure the steady state.
package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sim"
)

// PatternKind names the four communication patterns of Section 7.1.
type PatternKind string

// The paper's communication patterns.
const (
	Random  PatternKind = "random"
	Compl   PatternKind = "complement"
	Transp  PatternKind = "transpose"
	Leveled PatternKind = "leveled"
)

// InjectionKind distinguishes the injection models of Section 7.1.
type InjectionKind string

// Injection models: static with 1 packet per node, static with n packets
// per node, and dynamic Bernoulli λ=1.
const (
	Static1 InjectionKind = "static-1"
	StaticN InjectionKind = "static-n"
	Dynamic InjectionKind = "dynamic"
)

// PaperRow is one row of a published table.
type PaperRow struct {
	Dims int     // hypercube dimension n
	Lavg float64 // published average latency
	Lmax int64   // published maximum latency
	Ir   float64 // published effective injection rate in percent (dynamic only)
}

// Experiment describes one table of the paper.
type Experiment struct {
	ID        string // "table1" ... "table12"
	Title     string // the paper's caption
	Pattern   PatternKind
	Injection InjectionKind
	Paper     []PaperRow
}

// Row is one measured row, paired with the paper's values.
type Row struct {
	Dims      int
	Nodes     int
	Lavg      float64
	Lmax      int64
	Ir        float64 // percent; meaningful only for dynamic experiments
	Cycles    int64
	Delivered int64
	Paper     PaperRow
}

// Options tunes a run. The zero value reproduces the paper's setup.
type Options struct {
	Seed     int64
	QueueCap int        // default 5 (the paper's value)
	Policy   sim.Policy // default PolicyFirstFree (the paper's fill order)
	Warmup   int64      // dynamic runs: warmup cycles (default 500)
	Measure  int64      // dynamic runs: measured cycles (default 1500)
	Workers  int
	// Algorithm overrides the fully-adaptive scheme for ablations:
	// "adaptive" (default), "hung", "ecube".
	Algorithm string
	// Engine selects the simulation model, as RunSpec.Engine: "buffered"
	// (default, the paper's node model), "buffered:vct" (the same with
	// virtual cut-through) or "atomic" (the Section 2 reference model).
	Engine string
	// Traffic overrides the injection model of dynamic cells for ablations:
	// a RunSpec traffic spec such as "mmpp" or "onoff:hi=0.9,lo=0.1" (empty
	// = the paper's Bernoulli process). Static cells ignore it.
	Traffic string
}

// Filled returns the options with unset fields replaced by the paper's
// defaults — the exported form of the fill step, for callers (the sweep
// orchestrator) that need the effective values for cost estimates.
func (o Options) Filled() Options {
	o.fill()
	return o
}

func (o *Options) fill() {
	if o.QueueCap == 0 {
		o.QueueCap = 5
	}
	if o.Warmup == 0 {
		o.Warmup = 500
	}
	if o.Measure == 0 {
		o.Measure = 1500
	}
	if o.Algorithm == "" {
		o.Algorithm = "adaptive"
	}
}

// Tables returns the twelve experiments of Section 7 with the paper's
// published values.
func Tables() []Experiment {
	return []Experiment{
		{
			ID: "table1", Title: "Random Routing, 1 packet", Pattern: Random, Injection: Static1,
			Paper: []PaperRow{{10, 10.96, 19, 0}, {11, 12.09, 21, 0}, {12, 13.08, 25, 0}, {13, 14.03, 27, 0}, {14, 15.04, 29, 0}},
		},
		{
			ID: "table2", Title: "Complement, 1 packet", Pattern: Compl, Injection: Static1,
			Paper: []PaperRow{{10, 21, 21, 0}, {11, 23, 23, 0}, {12, 25, 25, 0}, {13, 27, 27, 0}, {14, 29, 29, 0}},
		},
		{
			ID: "table3", Title: "Transpose, 1 packet", Pattern: Transp, Injection: Static1,
			Paper: []PaperRow{{10, 11.09, 21, 0}, {11, 11.09, 21, 0}, {12, 13.13, 25, 0}, {13, 13.13, 25, 0}, {14, 15.23, 29, 0}},
		},
		{
			ID: "table4", Title: "Leveled Permutation, 1 packet", Pattern: Leveled, Injection: Static1,
			Paper: []PaperRow{{10, 10.10, 21, 0}, {11, 10.98, 21, 0}, {12, 12.06, 25, 0}, {13, 13.07, 25, 0}, {14, 14.03, 29, 0}},
		},
		{
			ID: "table5", Title: "Random Routing, n packets", Pattern: Random, Injection: StaticN,
			Paper: []PaperRow{{10, 11.33, 22, 0}, {11, 12.52, 25, 0}, {12, 13.76, 27, 0}, {13, 15.02, 30, 0}, {14, 16.54, 32, 0}},
		},
		{
			ID: "table6", Title: "Complement, n packets", Pattern: Compl, Injection: StaticN,
			Paper: []PaperRow{{10, 21, 21, 0}, {11, 24.99, 30, 0}, {12, 28.61, 35, 0}, {13, 32.74, 39, 0}, {14, 36.23, 44, 0}},
		},
		{
			ID: "table7", Title: "Transpose, n packets", Pattern: Transp, Injection: StaticN,
			Paper: []PaperRow{{10, 12.27, 26, 0}, {11, 12.40, 32, 0}, {12, 16.01, 37, 0}, {13, 16.22, 36, 0}, {14, 20.49, 43, 0}},
		},
		{
			ID: "table8", Title: "Leveled Permutation, n packets", Pattern: Leveled, Injection: StaticN,
			Paper: []PaperRow{{10, 10.78, 23, 0}, {11, 11.77, 25, 0}, {12, 13.17, 28, 0}, {13, 14.60, 32, 0}, {14, 16.03, 37, 0}},
		},
		{
			ID: "table9", Title: "Random Routing, lambda=1", Pattern: Random, Injection: Dynamic,
			Paper: []PaperRow{{10, 12.10, 30, 93}, {11, 13.47, 35, 89}, {12, 15.01, 37, 85}, {13, 16.58, 44, 81}, {14, 18.30, 49, 76}},
		},
		{
			ID: "table10", Title: "Complement, lambda=1", Pattern: Compl, Injection: Dynamic,
			Paper: []PaperRow{{10, 33.32, 52, 55}, {11, 39.29, 58, 49}, {12, 45.60, 68, 45}, {13, 52.87, 79, 41}, {14, 60.70, 90, 38}},
		},
		{
			ID: "table11", Title: "Transpose, lambda=1", Pattern: Transp, Injection: Dynamic,
			Paper: []PaperRow{{10, 14.67, 36, 83}, {11, 14.67, 36, 83}, {12, 15.78, 49, 73}, {13, 20.31, 54, 71}, {14, 27.33, 66, 61}},
		},
		{
			ID: "table12", Title: "Leveled Permutation, lambda=1", Pattern: Leveled, Injection: Dynamic,
			Paper: []PaperRow{{9, 11.28, 37, 94}, {10, 12.47, 43, 91}, {11, 13.50, 48, 89}, {12, 15.17, 56, 84}, {13, 16.91, 53, 80}, {14, 18.46, 57, 75}},
		},
	}
}

// FindTable returns the experiment with the given id ("table7").
func FindTable(id string) (Experiment, error) {
	for _, ex := range Tables() {
		if ex.ID == id {
			return ex, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// algorithm builds the hypercube algorithm variant for the options.
func algorithm(dims int, opt Options) (core.Algorithm, error) {
	switch opt.Algorithm {
	case "adaptive":
		return core.NewHypercubeAdaptive(dims), nil
	case "hung":
		return core.NewHypercubeHung(dims), nil
	case "ecube":
		return core.NewHypercubeECube(dims), nil
	}
	return nil, fmt.Errorf("bench: unknown algorithm variant %q", opt.Algorithm)
}

// paperRow returns the published values for dims, or a zero row.
func (ex Experiment) paperRow(dims int) PaperRow {
	for _, r := range ex.Paper {
		if r.Dims == dims {
			return r
		}
	}
	return PaperRow{Dims: dims}
}

// Dims lists the hypercube dimensions the paper reports for this table.
func (ex Experiment) Dims() []int {
	out := make([]int, len(ex.Paper))
	for i, r := range ex.Paper {
		out[i] = r.Dims
	}
	return out
}

// Cell returns orchestration facts about the cell at the given dimension:
// its node count and whether the cell may be simulated with Workers > 1
// without changing its results (credited algorithms tie-break differently
// across worker counts; the atomic engine ignores Workers entirely, so
// granting it more would only waste budget).
func (ex Experiment) Cell(dims int, opt Options) (nodes int, parallelizable bool, err error) {
	opt.fill()
	a, err := algorithm(dims, opt)
	if err != nil {
		return 0, false, err
	}
	return a.Topology().Nodes(), !a.Props().Credits && opt.Engine != "atomic", nil
}

// Run executes one row of the experiment at the given hypercube dimension.
func (ex Experiment) Run(dims int, opt Options) (Row, error) {
	return ex.RunCtx(nil, dims, opt)
}

// Spec translates one table cell into the canonical exec.RunSpec: the
// paper's algorithm variant and pattern as spec strings, the injection
// model as packets-per-node or a λ=1 Bernoulli window, and the options'
// result-affecting knobs. The returned spec is what RunCtx executes.
func (ex Experiment) Spec(dims int, opt Options) (exec.RunSpec, error) {
	opt.fill()
	s := exec.RunSpec{
		V:        exec.SpecVersion,
		Algo:     fmt.Sprintf("hypercube-%s:%d", opt.Algorithm, dims),
		Pattern:  string(ex.Pattern),
		Engine:   opt.Engine,
		Policy:   opt.Policy.String(),
		Seed:     opt.Seed,
		QueueCap: opt.QueueCap,
		Workers:  opt.Workers,
	}
	switch ex.Injection {
	case Static1:
		s.Inject, s.Packets = "static", 1
	case StaticN:
		s.Inject, s.Packets = "static", dims
	case Dynamic:
		s.Inject, s.Lambda, s.Warmup, s.Measure = "dynamic", 1, opt.Warmup, opt.Measure
		s.Traffic = opt.Traffic
	default:
		return exec.RunSpec{}, fmt.Errorf("bench: unknown injection %q", ex.Injection)
	}
	return s, nil
}

// RunCtx is Run with cancellation: the simulation stops within one cycle of
// ctx being canceled and the cell returns ctx's error.
//
// Execution goes through the canonical exec.RunSpec path — the same
// assembly the daemon and the result store use — so a table cell and a
// POSTed spec with the same parameters are the same run, fingerprint and
// all.
func (ex Experiment) RunCtx(ctx context.Context, dims int, opt Options) (Row, error) {
	s, err := ex.Spec(dims, opt)
	if err != nil {
		return Row{}, err
	}
	res, err := exec.Run(ctx, s, nil)
	if err != nil {
		return Row{}, err
	}
	return ex.Row(dims, res), nil
}

// Row is the table row of the cell at dims whose spec (Spec) produced res,
// whether res was just computed or read back from the result store.
func (ex Experiment) Row(dims int, res exec.Result) Row {
	return rowOf(dims, 1<<dims, res.Metrics, ex.paperRow(dims))
}

// rowOf reads a row off a run's metrics. The metrics are integer counters,
// so a row rebuilt from a stored result equals the one first computed,
// bit for bit.
func rowOf(size, nodes int, m sim.Metrics, paper PaperRow) Row {
	return Row{
		Dims:      size,
		Nodes:     nodes,
		Lavg:      m.AvgLatency(),
		Lmax:      m.LatencyMax,
		Ir:        100 * m.InjectionRate(),
		Cycles:    m.Cycles,
		Delivered: m.Delivered,
		Paper:     paper,
	}
}

// RunAll executes the experiment at every dimension the paper reports, up
// to maxDims (0 = all).
func (ex Experiment) RunAll(maxDims int, opt Options) ([]Row, error) {
	var rows []Row
	for _, d := range ex.Dims() {
		if maxDims > 0 && d > maxDims {
			continue
		}
		r, err := ex.Run(d, opt)
		if err != nil {
			return rows, fmt.Errorf("%s n=%d: %w", ex.ID, d, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Format renders measured rows against the paper's values.
func (ex Experiment) Format(rows []Row) string {
	s := fmt.Sprintf("%s: %s\n", ex.ID, ex.Title)
	if ex.Injection == Dynamic {
		s += "  n      N |   Lavg   Lmax  Ir%% |  paper:  Lavg   Lmax  Ir%%\n"
		for _, r := range rows {
			s += fmt.Sprintf(" %2d %6d | %6.2f %6d  %3.0f |         %6.2f %6d  %3.0f\n",
				r.Dims, r.Nodes, r.Lavg, r.Lmax, r.Ir, r.Paper.Lavg, r.Paper.Lmax, r.Paper.Ir)
		}
	} else {
		s += "  n      N |   Lavg   Lmax |  paper:  Lavg   Lmax\n"
		for _, r := range rows {
			s += fmt.Sprintf(" %2d %6d | %6.2f %6d |         %6.2f %6d\n",
				r.Dims, r.Nodes, r.Lavg, r.Lmax, r.Paper.Lavg, r.Paper.Lmax)
		}
	}
	return s
}
