package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/spec"
)

// Extended is one experiment of the extended suite: the measurements the
// paper announced but never published ("Simulations on higher-dimensional
// hypercubes and other topologies will be reported soon", end of Section 1).
// Same methodology as Tables 1-12 — the buffered node model, queue capacity
// 5, static 1/n-packet and dynamic Bernoulli injection — applied to the
// paper's other networks.
type Extended struct {
	ID        string
	Title     string
	SizeLabel string // what Sizes means: "side" or "dims"
	Sizes     []int
	Injection InjectionKind
	Lambda    float64 // dynamic runs: per-topology rate chosen below saturation collapse
	Algo      func(size int) core.Algorithm
	// Pattern is a spec-grammar pattern name ("random", "mesh-transpose");
	// the run path resolves it against the algorithm's topology, exactly as
	// a POSTed RunSpec would.
	Pattern string
	// PerNode overrides the static-N packet count (0 = the size itself,
	// matching the paper's "n packets" convention).
	PerNode func(size int) int
}

// ExtendedSuite returns the extended experiments: 2-D meshes, 2-D tori,
// shuffle-exchanges and cube-connected cycles under the Section 7
// methodology. Dynamic rates are fixed per topology at roughly 60-80% of
// the uniform-traffic saturation point, where latency and the effective
// injection rate are both informative (λ=1 drives the low-degree networks
// straight into the saturated regime studied separately in EXPERIMENTS.md).
func ExtendedSuite() []Extended {
	meshAlgo := func(side int) core.Algorithm { return core.NewMeshAdaptive(side, side) }
	torusAlgo := func(side int) core.Algorithm { return core.NewTorusAdaptive(side, side) }
	shuffleAlgo := func(dims int) core.Algorithm { return core.NewShuffleExchangeAdaptive(dims) }
	cccAlgo := func(dims int) core.Algorithm { return core.NewCCCAdaptive(dims) }
	return []Extended{
		{
			ID: "ext-mesh-random-n", Title: "Mesh, random, n packets (n = side)",
			SizeLabel: "side", Sizes: []int{8, 16, 24, 32}, Injection: StaticN,
			Algo: meshAlgo, Pattern: "random",
		},
		{
			ID: "ext-mesh-transpose-n", Title: "Mesh, matrix transpose, n packets",
			SizeLabel: "side", Sizes: []int{8, 16, 24, 32}, Injection: StaticN,
			Algo: meshAlgo, Pattern: "mesh-transpose",
		},
		{
			ID: "ext-mesh-random-dyn", Title: "Mesh, random, dynamic lambda=0.08",
			SizeLabel: "side", Sizes: []int{8, 16, 24}, Injection: Dynamic, Lambda: 0.08,
			Algo: meshAlgo, Pattern: "random",
		},
		{
			ID: "ext-torus-random-n", Title: "Torus, random, n packets",
			SizeLabel: "side", Sizes: []int{8, 16, 24}, Injection: StaticN,
			Algo: torusAlgo, Pattern: "random",
		},
		{
			ID: "ext-torus-random-dyn", Title: "Torus, random, dynamic lambda=0.2",
			SizeLabel: "side", Sizes: []int{8, 16, 24}, Injection: Dynamic, Lambda: 0.2,
			Algo: torusAlgo, Pattern: "random",
		},
		{
			ID: "ext-shuffle-random-n", Title: "Shuffle-exchange, random, n packets (n = dims)",
			SizeLabel: "dims", Sizes: []int{8, 10, 12}, Injection: StaticN,
			Algo: shuffleAlgo, Pattern: "random",
		},
		{
			ID: "ext-shuffle-random-dyn", Title: "Shuffle-exchange, random, dynamic lambda=0.02",
			SizeLabel: "dims", Sizes: []int{8, 10, 12}, Injection: Dynamic, Lambda: 0.02,
			Algo: shuffleAlgo, Pattern: "random",
		},
		{
			ID: "ext-ccc-random-n", Title: "Cube-connected cycles, random, n packets (n = order)",
			SizeLabel: "dims", Sizes: []int{5, 6, 7, 8}, Injection: StaticN,
			Algo: cccAlgo, Pattern: "random",
		},
		{
			ID: "ext-ccc-random-dyn", Title: "Cube-connected cycles, random, dynamic lambda=0.04",
			SizeLabel: "dims", Sizes: []int{5, 6, 7}, Injection: Dynamic, Lambda: 0.04,
			Algo: cccAlgo, Pattern: "random",
		},
	}
}

// FindExtended returns the extended experiment with the given id.
func FindExtended(id string) (Extended, error) {
	for _, ex := range ExtendedSuite() {
		if ex.ID == id {
			return ex, nil
		}
	}
	return Extended{}, fmt.Errorf("bench: unknown extended experiment %q", id)
}

// Cell returns orchestration facts about the cell at the given size; see
// (Experiment).Cell.
func (ex Extended) Cell(size int, opt Options) (nodes int, parallelizable bool, err error) {
	opt.fill()
	a := ex.Algo(size)
	return a.Topology().Nodes(), !a.Props().Credits && opt.Engine != "atomic", nil
}

// PacketsPerNode returns the static-N injection count for the size.
func (ex Extended) PacketsPerNode(size int) int {
	if ex.PerNode != nil {
		return ex.PerNode(size)
	}
	return size
}

// Run executes one row of the extended experiment.
func (ex Extended) Run(size int, opt Options) (Row, error) {
	return ex.RunCtx(nil, size, opt)
}

// Spec translates one extended-suite cell into the canonical exec.RunSpec;
// see (Experiment).Spec. The algorithm spec string is recovered from the
// constructed algorithm via spec.Format, so the cell and its spec always
// agree.
func (ex Extended) Spec(size int, opt Options) (exec.RunSpec, error) {
	opt.fill()
	algoSpec, err := spec.Format(ex.Algo(size))
	if err != nil {
		return exec.RunSpec{}, fmt.Errorf("bench: %s %s=%d: %w", ex.ID, ex.SizeLabel, size, err)
	}
	s := exec.RunSpec{
		V:        exec.SpecVersion,
		Algo:     algoSpec,
		Pattern:  ex.Pattern,
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
		s.Inject, s.Packets = "static", ex.PacketsPerNode(size)
	case Dynamic:
		s.Inject, s.Lambda, s.Warmup, s.Measure = "dynamic", ex.Lambda, opt.Warmup, opt.Measure
		s.Traffic = opt.Traffic
	default:
		return exec.RunSpec{}, fmt.Errorf("bench: unknown injection %q", ex.Injection)
	}
	return s, nil
}

// RunCtx is Run with cancellation; see (Experiment).RunCtx. Like the
// published tables, extended cells execute through the canonical
// exec.RunSpec path.
func (ex Extended) RunCtx(ctx context.Context, size int, opt Options) (Row, error) {
	s, err := ex.Spec(size, opt)
	if err != nil {
		return Row{}, err
	}
	res, err := exec.Run(ctx, s, nil)
	if err != nil {
		return Row{}, err
	}
	return ex.Row(size, res), nil
}

// Row is the row of the cell at size whose spec produced res; see
// (Experiment).Row.
func (ex Extended) Row(size int, res exec.Result) Row {
	return rowOf(size, ex.Algo(size).Topology().Nodes(), res.Metrics, PaperRow{})
}

// RunAll executes every size up to maxSize (0 = all).
func (ex Extended) RunAll(maxSize int, opt Options) ([]Row, error) {
	var rows []Row
	for _, s := range ex.Sizes {
		if maxSize > 0 && s > maxSize {
			continue
		}
		r, err := ex.Run(s, opt)
		if err != nil {
			return rows, fmt.Errorf("%s %s=%d: %w", ex.ID, ex.SizeLabel, s, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Format renders the measured rows.
func (ex Extended) Format(rows []Row) string {
	s := fmt.Sprintf("%s: %s\n", ex.ID, ex.Title)
	if ex.Injection == Dynamic {
		s += fmt.Sprintf("  %4s      N |   Lavg   Lmax  Ir%%\n", ex.SizeLabel)
		for _, r := range rows {
			s += fmt.Sprintf("  %4d %6d | %6.2f %6d  %3.0f\n", r.Dims, r.Nodes, r.Lavg, r.Lmax, r.Ir)
		}
	} else {
		s += fmt.Sprintf("  %4s      N |   Lavg   Lmax   cycles\n", ex.SizeLabel)
		for _, r := range rows {
			s += fmt.Sprintf("  %4d %6d | %6.2f %6d %8d\n", r.Dims, r.Nodes, r.Lavg, r.Lmax, r.Cycles)
		}
	}
	return s
}
