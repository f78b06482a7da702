package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkGraphStep measures one Step of a warmed graph-adaptive run, per
// engine and generator family, on both routing paths: the compiled next-hop
// route tables (the default) and the uncompiled interface-scan fallback
// (Config.DisableRouteTable). The table's win grows with port count — the
// scan pays two interface calls per port per decision, the table one load —
// so the high-radix families (hyperx, fat-tree) separate the paths hardest.
// The cross-cell trajectory lives in BENCH_engine.json (cmd/enginebench);
// these exist for quick same-host A/B and profiling of the routing share.
func BenchmarkGraphStep(b *testing.B) {
	families := []struct {
		name   string
		build  func() (*topology.Graph, error)
		lambda float64
	}{
		{"random-regular-256", func() (*topology.Graph, error) { return topology.NewRandomRegular(256, 4, 1) }, 0.05},
		{"hyperx-16x16", func() (*topology.Graph, error) { return topology.NewHyperX(16, 16) }, 0.1},
		{"fat-tree-32x16", func() (*topology.Graph, error) { return topology.NewFatTree(32, 16) }, 0.1},
	}
	for _, engine := range []string{"buffered", "atomic"} {
		for _, fam := range families {
			for _, path := range []struct {
				name string
				scan bool
			}{{"table", false}, {"scan", true}} {
				b.Run(engine+"/"+fam.name+"/"+path.name, func(b *testing.B) {
					g, err := fam.build()
					if err != nil {
						b.Fatal(err)
					}
					algo, err := core.NewGraphAdaptive(g)
					if err != nil {
						b.Fatal(err)
					}
					eng, err := NewSimulator(engine, Config{
						Algorithm: algo, Seed: 1, DisableRouteTable: path.scan,
					})
					if err != nil {
						b.Fatal(err)
					}
					nodes := g.Nodes()
					src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, fam.lambda, 3)
					eng.Start(src, DynamicPlan(0, 1<<30))
					for i := 0; i < 100; i++ {
						eng.Step()
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eng.Step()
					}
				})
			}
		}
	}
}

// BenchmarkGraphBuild measures what a generated-graph spec costs before its
// first cycle: "generate" is topology.NewRandomRegular (pairing, validation
// and the all-pairs BFS), "compile" is core.NewGraphAdaptive over the
// generated graph (the route-table fill; at n=4096 the default tier is lazy,
// so construction only allocates the row index). `go test -run '^$' -bench
// GraphBuild ./internal/sim/` is the target to iterate on those kernels.
func BenchmarkGraphBuild(b *testing.B) {
	for _, n := range []int{512, 2048, 4096} {
		b.Run(fmt.Sprintf("generate/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topology.NewRandomRegular(n, 3, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("compile/n=%d", n), func(b *testing.B) {
			g, err := topology.NewRandomRegular(n, 3, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewGraphAdaptive(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
