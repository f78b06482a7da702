// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 7): one Experiment per published table, carrying the
// paper's reported numbers so runs print paper-vs-measured side by side,
// and the extended suite, the same methodology on the paper's other
// networks.
//
// All twelve tables simulate the fully-adaptive hypercube algorithm with
// injection queue size 1 and central queue capacity 5, across hypercube
// dimensions 10-14 (1K-16K nodes); Table 12 additionally reports n=9.
// Static experiments inject 1 or n packets per node and drain; dynamic
// experiments run a Bernoulli λ=1 process and measure the steady state.
// Every cell is an exec.RunSpec (Spec), so a table cell and a POSTed spec
// with the same parameters are the same run, fingerprint and all.
package bench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/sim"
)

// PatternKind names a communication pattern in the spec grammar; the
// constants are the four patterns of Section 7.1.
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
// per node (n = the cell's size), and dynamic Bernoulli injection.
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

// Experiment is one table: a paper table, which carries its published
// rows, or a table of the extended suite, which has none.
type Experiment struct {
	ID    string // "table1" ... "table12", "ext-mesh-random-n"
	Title string // the table's caption
	// Algo is the cell's algorithm spec with its size in place of each
	// %[1]d ("mesh-adaptive:%[1]dx%[1]d"). Empty is the paper's hypercube
	// in the variant Options.Algorithm names.
	Algo string
	// Pattern is a spec-grammar pattern name ("random", "mesh-transpose");
	// the run resolves it against the cell's network, as a POSTed RunSpec
	// would.
	Pattern   PatternKind
	Injection InjectionKind
	Lambda    float64    // dynamic rate; 0 is the paper's λ=1
	SizeLabel string     // what a size is: "n" (hypercube dimension), "side" or "dims"
	Sizes     []int      // the sizes the table reports
	Paper     []PaperRow // the published rows; nil in the extended suite
}

// Row is one measured row, paired with the paper's values.
type Row struct {
	Dims      int // the cell's size
	Nodes     int
	Lavg      float64
	Lmax      int64
	Ir        float64 // percent; meaningful only for dynamic experiments
	Cycles    int64
	Delivered int64
	Paper     PaperRow
}

// Options tunes a run. The zero value reproduces the paper's setup: zero
// fields take the RunSpec defaults, which are the paper's values.
type Options struct {
	Seed     int64
	QueueCap int        // default 5 (the paper's value)
	Policy   sim.Policy // default PolicyFirstFree (the paper's fill order)
	Warmup   int64      // dynamic runs: warmup cycles (default 500)
	Measure  int64      // dynamic runs: measured cycles (default 1500)
	// Algorithm overrides the paper tables' fully-adaptive scheme for
	// ablations: "adaptive" (default), "hung", "ecube". The extended suite
	// ignores it.
	Algorithm string
	// Engine selects the simulation model, as RunSpec.Engine: "buffered"
	// (default, the paper's node model), "buffered:vct" (the same with
	// virtual cut-through) or "atomic" (the Section 2 reference model).
	Engine string
	// Traffic overrides the injection model of dynamic cells for ablations:
	// a RunSpec traffic spec such as "mmpp" or "onoff:hi=0.9,lo=0.1" (empty
	// = Bernoulli). Static cells ignore it.
	Traffic string
}

// Tables returns the twelve experiments of Section 7 with the paper's
// published values, each run at the dimensions the paper reports.
func Tables() []Experiment {
	ts := []Experiment{
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
	for i := range ts {
		ts[i].SizeLabel = "n"
		for _, r := range ts[i].Paper {
			ts[i].Sizes = append(ts[i].Sizes, r.Dims)
		}
	}
	return ts
}

// ExtendedSuite returns the extended experiments: the measurements the
// paper announced but never published ("Simulations on higher-dimensional
// hypercubes and other topologies will be reported soon", end of Section
// 1). Same methodology as Tables 1-12 — the buffered node model, queue
// capacity 5, static 1/n-packet and dynamic Bernoulli injection — applied
// to 2-D meshes, 2-D tori, shuffle-exchanges and cube-connected cycles.
// Dynamic rates are fixed per topology at roughly 60-80% of the
// uniform-traffic saturation point, where latency and the effective
// injection rate are both informative (λ=1 drives the low-degree networks
// straight into the saturated regime studied separately in EXPERIMENTS.md).
func ExtendedSuite() []Experiment {
	const (
		mesh    = "mesh-adaptive:%[1]dx%[1]d"
		torus   = "torus-adaptive:%[1]dx%[1]d"
		shuffle = "shuffle-adaptive:%[1]d"
		ccc     = "ccc-adaptive:%[1]d"
	)
	return []Experiment{
		{
			ID: "ext-mesh-random-n", Title: "Mesh, random, n packets (n = side)",
			SizeLabel: "side", Sizes: []int{8, 16, 24, 32}, Injection: StaticN,
			Algo: mesh, Pattern: Random,
		},
		{
			ID: "ext-mesh-transpose-n", Title: "Mesh, matrix transpose, n packets",
			SizeLabel: "side", Sizes: []int{8, 16, 24, 32}, Injection: StaticN,
			Algo: mesh, Pattern: "mesh-transpose",
		},
		{
			ID: "ext-mesh-random-dyn", Title: "Mesh, random, dynamic lambda=0.08",
			SizeLabel: "side", Sizes: []int{8, 16, 24}, Injection: Dynamic, Lambda: 0.08,
			Algo: mesh, Pattern: Random,
		},
		{
			ID: "ext-torus-random-n", Title: "Torus, random, n packets",
			SizeLabel: "side", Sizes: []int{8, 16, 24}, Injection: StaticN,
			Algo: torus, Pattern: Random,
		},
		{
			ID: "ext-torus-random-dyn", Title: "Torus, random, dynamic lambda=0.2",
			SizeLabel: "side", Sizes: []int{8, 16, 24}, Injection: Dynamic, Lambda: 0.2,
			Algo: torus, Pattern: Random,
		},
		{
			ID: "ext-shuffle-random-n", Title: "Shuffle-exchange, random, n packets (n = dims)",
			SizeLabel: "dims", Sizes: []int{8, 10, 12}, Injection: StaticN,
			Algo: shuffle, Pattern: Random,
		},
		{
			ID: "ext-shuffle-random-dyn", Title: "Shuffle-exchange, random, dynamic lambda=0.02",
			SizeLabel: "dims", Sizes: []int{8, 10, 12}, Injection: Dynamic, Lambda: 0.02,
			Algo: shuffle, Pattern: Random,
		},
		{
			ID: "ext-ccc-random-n", Title: "Cube-connected cycles, random, n packets (n = order)",
			SizeLabel: "dims", Sizes: []int{5, 6, 7, 8}, Injection: StaticN,
			Algo: ccc, Pattern: Random,
		},
		{
			ID: "ext-ccc-random-dyn", Title: "Cube-connected cycles, random, dynamic lambda=0.04",
			SizeLabel: "dims", Sizes: []int{5, 6, 7}, Injection: Dynamic, Lambda: 0.04,
			Algo: ccc, Pattern: Random,
		},
	}
}

// Find returns the experiment with the given id from either suite.
func Find(id string) (Experiment, error) {
	return find(append(Tables(), ExtendedSuite()...), id)
}

// FindTable returns the paper table with the given id ("table7").
func FindTable(id string) (Experiment, error) { return find(Tables(), id) }

// FindExtended returns the extended experiment with the given id.
func FindExtended(id string) (Experiment, error) { return find(ExtendedSuite(), id) }

func find(exps []Experiment, id string) (Experiment, error) {
	for _, ex := range exps {
		if ex.ID == id {
			return ex, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// Published reports whether the experiment is one of the paper's tables,
// with published rows to print its measurements against.
func (ex Experiment) Published() bool { return ex.Paper != nil }

// paperRow returns the published values for dims, or a zero row.
func (ex Experiment) paperRow(dims int) PaperRow {
	for _, r := range ex.Paper {
		if r.Dims == dims {
			return r
		}
	}
	return PaperRow{Dims: dims}
}

// Spec translates one cell into the canonical exec.RunSpec: the algorithm
// and pattern as spec strings, the injection model as packets per node or
// a Bernoulli window, and the options' result-affecting knobs. The
// returned spec is what Run executes.
func (ex Experiment) Spec(size int, opt Options) (exec.RunSpec, error) {
	algo := ex.Algo
	if algo == "" {
		variant := opt.Algorithm
		if variant == "" {
			variant = "adaptive"
		}
		algo = "hypercube-" + variant + ":%[1]d"
	}
	s := exec.RunSpec{
		V:        exec.SpecVersion,
		Algo:     fmt.Sprintf(algo, size),
		Pattern:  string(ex.Pattern),
		Engine:   opt.Engine,
		Policy:   opt.Policy.String(),
		Seed:     opt.Seed,
		QueueCap: opt.QueueCap,
	}
	switch ex.Injection {
	case Static1:
		s.Inject, s.Packets = "static", 1
	case StaticN:
		s.Inject, s.Packets = "static", size
	case Dynamic:
		s.Inject, s.Lambda, s.Warmup, s.Measure = "dynamic", ex.Lambda, opt.Warmup, opt.Measure
		s.Traffic = opt.Traffic
	default:
		return exec.RunSpec{}, fmt.Errorf("bench: unknown injection %q", ex.Injection)
	}
	return s, nil
}

// Run executes the cell of the given size.
func (ex Experiment) Run(size int, opt Options) (Row, error) {
	return ex.RunCtx(nil, size, opt)
}

// RunCtx is Run with cancellation: the simulation stops within one cycle of
// ctx being canceled and the cell returns ctx's error.
func (ex Experiment) RunCtx(ctx context.Context, size int, opt Options) (Row, error) {
	s, err := ex.Spec(size, opt)
	if err != nil {
		return Row{}, err
	}
	c, err := exec.Compile(s)
	if err != nil {
		return Row{}, err
	}
	res, err := c.Run(ctx, 0, nil)
	if err != nil {
		return Row{}, err
	}
	return ex.Row(size, c.Nodes(), res), nil
}

// Row is the table row of the cell at size, on a network of nodes nodes,
// whose spec (Spec) produced res, whether res was just computed or read
// back from the result store. The metrics are integer counters, so a row
// rebuilt from a stored result equals the one first computed, bit for bit.
func (ex Experiment) Row(size, nodes int, res exec.Result) Row {
	m := res.Metrics
	return Row{
		Dims:      size,
		Nodes:     nodes,
		Lavg:      m.AvgLatency(),
		Lmax:      m.LatencyMax,
		Ir:        100 * m.InjectionRate(),
		Cycles:    m.Cycles,
		Delivered: m.Delivered,
		Paper:     ex.paperRow(size),
	}
}

// RunAll executes the experiment at every size it reports, up to maxSize
// (0 = all).
func (ex Experiment) RunAll(maxSize int, opt Options) ([]Row, error) {
	var rows []Row
	for _, size := range ex.Sizes {
		if maxSize > 0 && size > maxSize {
			continue
		}
		r, err := ex.Run(size, opt)
		if err != nil {
			return rows, fmt.Errorf("%s %s=%d: %w", ex.ID, ex.SizeLabel, size, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Format renders measured rows: against the published values for a paper
// table, with the cycle count of static cells for the extended suite.
func (ex Experiment) Format(rows []Row) string {
	s := fmt.Sprintf("%s: %s\n", ex.ID, ex.Title)
	switch {
	case ex.Published() && ex.Injection == Dynamic:
		s += "  n      N |   Lavg   Lmax  Ir% |  paper:  Lavg   Lmax  Ir%\n"
		for _, r := range rows {
			s += fmt.Sprintf(" %2d %6d | %6.2f %6d  %3.0f |         %6.2f %6d  %3.0f\n",
				r.Dims, r.Nodes, r.Lavg, r.Lmax, r.Ir, r.Paper.Lavg, r.Paper.Lmax, r.Paper.Ir)
		}
	case ex.Published():
		s += "  n      N |   Lavg   Lmax |  paper:  Lavg   Lmax\n"
		for _, r := range rows {
			s += fmt.Sprintf(" %2d %6d | %6.2f %6d |         %6.2f %6d\n",
				r.Dims, r.Nodes, r.Lavg, r.Lmax, r.Paper.Lavg, r.Paper.Lmax)
		}
	case ex.Injection == Dynamic:
		s += fmt.Sprintf("  %4s      N |   Lavg   Lmax  Ir%%\n", ex.SizeLabel)
		for _, r := range rows {
			s += fmt.Sprintf("  %4d %6d | %6.2f %6d  %3.0f\n", r.Dims, r.Nodes, r.Lavg, r.Lmax, r.Ir)
		}
	default:
		s += fmt.Sprintf("  %4s      N |   Lavg   Lmax   cycles\n", ex.SizeLabel)
		for _, r := range rows {
			s += fmt.Sprintf("  %4d %6d | %6.2f %6d %8d\n", r.Dims, r.Nodes, r.Lavg, r.Lmax, r.Cycles)
		}
	}
	return s
}

// Table is one experiment's measured rows, as Format and Score take them.
type Table struct {
	Exp  Experiment
	Rows []Row
}

// Score renders how far the measured rows of the paper tables land from the
// published ones: the mean relative error |measured - paper| / paper of
// L_avg, L_max and, in the dynamic tables, I_r, per table and over every
// row. Tables without published rows (the extended suite) are left out.
func Score(tables []Table) string {
	s := "score: mean relative error |measured - paper| / paper over each table's rows\n"
	s += "  table    rows    L_avg    L_max      I_r\n"
	var all errSums
	for _, tb := range tables {
		if !tb.Exp.Published() {
			continue
		}
		var e errSums
		for _, r := range tb.Rows {
			e.add(r, tb.Exp.Injection == Dynamic)
		}
		s += e.format(tb.Exp.ID)
		all.merge(e)
	}
	return s + all.format("all")
}

// errSums accumulates relative errors over rows; ir counts the rows with a
// published injection rate.
type errSums struct {
	rows, ir        int
	lavg, lmax, irE float64
}

func (e *errSums) add(r Row, dynamic bool) {
	e.rows++
	e.lavg += math.Abs(r.Lavg-r.Paper.Lavg) / r.Paper.Lavg
	e.lmax += math.Abs(float64(r.Lmax-r.Paper.Lmax)) / float64(r.Paper.Lmax)
	if dynamic {
		e.ir++
		e.irE += math.Abs(r.Ir-r.Paper.Ir) / r.Paper.Ir
	}
}

func (e *errSums) merge(o errSums) {
	e.rows, e.ir = e.rows+o.rows, e.ir+o.ir
	e.lavg, e.lmax, e.irE = e.lavg+o.lavg, e.lmax+o.lmax, e.irE+o.irE
}

func (e errSums) format(id string) string {
	if e.rows == 0 {
		return fmt.Sprintf("  %-8s %4d %8s %8s %8s\n", id, 0, "-", "-", "-")
	}
	ir := "-"
	if e.ir > 0 {
		ir = fmt.Sprintf("%7.2f%%", 100*e.irE/float64(e.ir))
	}
	return fmt.Sprintf("  %-8s %4d %7.2f%% %7.2f%% %8s\n", id, e.rows,
		100*e.lavg/float64(e.rows), 100*e.lmax/float64(e.rows), ir)
}
