// Benchmarks that regenerate the paper's evaluation. One benchmark per
// published table (Tables 1-12 of Section 7), plus the figure exports and
// the ablations called out in DESIGN.md.
//
// Each table benchmark runs one full row of the experiment per iteration
// and reports the paper's observables as custom metrics (Lavg, Lmax, Ir%),
// so `go test -bench .` prints measured values next to throughput. The
// benchmarks default to hypercube dimension 8 (256 nodes) to keep a full
// sweep at minutes on one core; set REPRO_BENCH_DIMS=10..14 to reproduce the
// published sizes (cmd/tables prints them against the paper's numbers).
package repro_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"

	"repro"
	"repro/internal/bench"
)

// benchDims returns the hypercube dimension used by the table benchmarks.
func benchDims() int {
	if s := os.Getenv("REPRO_BENCH_DIMS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 2 && v <= 14 {
			return v
		}
	}
	return 8
}

// benchTable runs one row of a table experiment per iteration.
func benchTable(b *testing.B, id string) {
	b.Helper()
	ex, err := bench.FindTable(id)
	if err != nil {
		b.Fatal(err)
	}
	dims := benchDims()
	opt := bench.Options{Seed: 1, Warmup: 300, Measure: 1000}
	var row bench.Row
	for i := 0; i < b.N; i++ {
		row, err = ex.Run(dims, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.Lavg, "Lavg")
	b.ReportMetric(float64(row.Lmax), "Lmax")
	if ex.Injection == bench.Dynamic {
		b.ReportMetric(row.Ir, "Ir%")
	}
	b.ReportMetric(float64(row.Delivered)/float64(row.Cycles), "pkts/cycle")
}

// Tables 1-4: static injection, 1 packet per node.
func BenchmarkTable1RandomStatic1(b *testing.B)     { benchTable(b, "table1") }
func BenchmarkTable2ComplementStatic1(b *testing.B) { benchTable(b, "table2") }
func BenchmarkTable3TransposeStatic1(b *testing.B)  { benchTable(b, "table3") }
func BenchmarkTable4LeveledStatic1(b *testing.B)    { benchTable(b, "table4") }

// Tables 5-8: static injection, n packets per node.
func BenchmarkTable5RandomStaticN(b *testing.B)     { benchTable(b, "table5") }
func BenchmarkTable6ComplementStaticN(b *testing.B) { benchTable(b, "table6") }
func BenchmarkTable7TransposeStaticN(b *testing.B)  { benchTable(b, "table7") }
func BenchmarkTable8LeveledStaticN(b *testing.B)    { benchTable(b, "table8") }

// Tables 9-12: dynamic Bernoulli injection at lambda = 1.
func BenchmarkTable9RandomDynamic(b *testing.B)      { benchTable(b, "table9") }
func BenchmarkTable10ComplementDynamic(b *testing.B) { benchTable(b, "table10") }
func BenchmarkTable11TransposeDynamic(b *testing.B)  { benchTable(b, "table11") }
func BenchmarkTable12LeveledDynamic(b *testing.B)    { benchTable(b, "table12") }

// Figures 1-3: building and certifying the queue dependency graphs that the
// paper draws (hypercube, mesh, shuffle-exchange hung with dynamic links).
func benchFigure(b *testing.B, spec string) {
	b.Helper()
	algo, err := repro.NewAlgorithm(spec)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := repro.VerifyDeadlockFree(algo); err != nil {
			b.Fatal(err)
		}
		if err := repro.WriteQDG(io.Discard, algo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1HypercubeQDG(b *testing.B) { benchFigure(b, "hypercube-adaptive:3") }
func BenchmarkFigure2MeshQDG(b *testing.B)      { benchFigure(b, "mesh-adaptive:3x3") }
func BenchmarkFigure3ShuffleQDG(b *testing.B)   { benchFigure(b, "shuffle-adaptive:3") }

// runOnce drives a static workload through the buffered engine and reports
// the paper's observables.
func runOnce(b *testing.B, algoSpec, patSpec string, perNode int, cfg repro.Config) {
	b.Helper()
	algo, err := repro.NewAlgorithm(algoSpec)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Algorithm = algo
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	eng, err := repro.NewSimulator("buffered", cfg)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := repro.NewPattern(patSpec, algo, 5)
	if err != nil {
		b.Fatal(err)
	}
	var m repro.Metrics
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(context.Background(), repro.NewStaticTraffic(pat, algo, perNode, 9), repro.StaticPlan(10_000_000))
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	b.ReportMetric(m.AvgLatency(), "Lavg")
	b.ReportMetric(float64(m.LatencyMax), "Lmax")
	b.ReportMetric(float64(m.Cycles), "cycles")
}

// Ablation: dynamic links on/off and the oblivious comparator, under the
// adversarial complement permutation (DESIGN.md S8). The adaptive scheme
// should drain in a fraction of the hung scheme's cycles.
func BenchmarkAblationComplement(b *testing.B) {
	dims := benchDims()
	for _, variant := range []string{"hypercube-adaptive", "hypercube-hung", "hypercube-ecube"} {
		b.Run(variant, func(b *testing.B) {
			runOnce(b, fmt.Sprintf("%s:%d", variant, dims), "complement", dims, repro.Config{})
		})
	}
}

// Ablation: bounded-queue claim — queue capacity sweep under heavy random
// traffic.
func BenchmarkAblationQueueCap(b *testing.B) {
	dims := benchDims()
	for _, cap := range []int{2, 5, 16} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			runOnce(b, fmt.Sprintf("hypercube-adaptive:%d", dims), "random", dims, repro.Config{QueueCap: cap})
		})
	}
}

// Ablation: the paper leaves select unspecified; sensitivity to the
// selection policy.
func BenchmarkAblationPolicy(b *testing.B) {
	dims := benchDims()
	for _, pol := range []repro.Policy{repro.PolicyFirstFree, repro.PolicyRandom, repro.PolicyStaticFirst, repro.PolicyLastFree} {
		b.Run(pol.String(), func(b *testing.B) {
			runOnce(b, fmt.Sprintf("hypercube-adaptive:%d", dims), "transpose", dims, repro.Config{Policy: pol})
		})
	}
}

// Ablation: λ sweep for the dynamic model (the paper fixes λ=1); reports the
// saturation curve of the effective injection rate.
func BenchmarkAblationLambda(b *testing.B) {
	dims := benchDims()
	for _, lambda := range []float64{0.25, 0.5, 0.75, 1.0} {
		b.Run(fmt.Sprintf("lambda%.2f", lambda), func(b *testing.B) {
			algo, err := repro.NewAlgorithm(fmt.Sprintf("hypercube-adaptive:%d", dims))
			if err != nil {
				b.Fatal(err)
			}
			eng, err := repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			pat, err := repro.NewPattern("random", algo, 5)
			if err != nil {
				b.Fatal(err)
			}
			var m repro.Metrics
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(context.Background(), repro.NewDynamicTraffic(pat, algo, lambda, 9), repro.DynamicPlan(300, 1000))
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			b.ReportMetric(m.AvgLatency(), "Lavg")
			b.ReportMetric(100*m.InjectionRate(), "Ir%")
		})
	}
}

// Ablation: switching technique — store-and-forward (the paper) vs virtual
// cut-through [KK79], the hybrid its introduction names.
func BenchmarkAblationCutThrough(b *testing.B) {
	dims := benchDims()
	for _, vct := range []bool{false, true} {
		name := "store-and-forward"
		if vct {
			name = "cut-through"
		}
		b.Run(name, func(b *testing.B) {
			runOnce(b, fmt.Sprintf("hypercube-adaptive:%d", dims), "random", dims, repro.Config{CutThrough: vct})
		})
	}
}

// Ablation: head-of-line blocking — the strict one-head-move-per-queue
// reading of Route(q) vs the default per-buffer FIFO bypass.
func BenchmarkAblationHeadOnly(b *testing.B) {
	dims := benchDims()
	for _, head := range []bool{false, true} {
		name := "bypass"
		if head {
			name = "head-only"
		}
		b.Run(name, func(b *testing.B) {
			runOnce(b, fmt.Sprintf("hypercube-adaptive:%d", dims), "random", dims, repro.Config{HeadOnly: head})
		})
	}
}

// Mesh comparison at equal total buffering (Section 4's claim: two queues
// suffice and remain competitive).
func BenchmarkMeshTranspose(b *testing.B) {
	for _, v := range []struct {
		spec string
		cap  int
	}{
		{"mesh-adaptive:16x16", 10},
		{"mesh-twophase:16x16", 10},
		{"mesh-xy:16x16", 5},
	} {
		b.Run(v.spec, func(b *testing.B) {
			runOnce(b, v.spec, "mesh-transpose", 16, repro.Config{QueueCap: v.cap})
		})
	}
}

// Shuffle-exchange: the Section 5 scheme against its static ablation, at
// the paper's queue size and at the bubble guard's minimum.
func BenchmarkShuffleExchange(b *testing.B) {
	for _, spec := range []string{"shuffle-adaptive:8", "shuffle-static:8"} {
		for _, cap := range []int{2, 5} {
			b.Run(fmt.Sprintf("%s/cap%d", spec, cap), func(b *testing.B) {
				runOnce(b, spec, "random", 4, repro.Config{QueueCap: cap})
			})
		}
	}
}

// Torus: the Section 4 extension, random traffic.
func BenchmarkTorusRandom(b *testing.B) {
	runOnce(b, "torus-adaptive:8x8", "random", 8, repro.Config{})
}

// CCC: the "other networks" extension, adaptive vs static under random load.
func BenchmarkCCC(b *testing.B) {
	for _, spec := range []string{"ccc-adaptive:6", "ccc-static:6"} {
		b.Run(spec, func(b *testing.B) {
			runOnce(b, spec, "random", 6, repro.Config{})
		})
	}
}

// Engine micro-benchmarks: raw simulation speed (node-cycles per second) of
// the two engines on a loaded 1K-node hypercube.
func BenchmarkEngineBuffered(b *testing.B) {
	algo, err := repro.NewAlgorithm("hypercube-adaptive:10")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pat, _ := repro.NewPattern("random", algo, 5)
	b.ResetTimer()
	var m repro.Metrics
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(context.Background(), repro.NewDynamicTraffic(pat, algo, 1.0, 9), repro.DynamicPlan(0, 200))
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	b.ReportMetric(float64(m.Cycles*int64(algo.Topology().Nodes()))*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
}

func BenchmarkEngineAtomic(b *testing.B) {
	algo, err := repro.NewAlgorithm("hypercube-adaptive:10")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := repro.NewSimulator("atomic", repro.Config{Algorithm: algo, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pat, _ := repro.NewPattern("random", algo, 5)
	b.ResetTimer()
	var m repro.Metrics
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(context.Background(), repro.NewDynamicTraffic(pat, algo, 1.0, 9), repro.DynamicPlan(0, 200))
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	b.ReportMetric(float64(m.Cycles*int64(algo.Topology().Nodes()))*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
}
