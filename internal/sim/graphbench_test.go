package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkGraphStep measures one Step of a warmed graph-adaptive run, per
// engine and generator family. A routing decision reads 1 + ports distances
// out of the destination's row of the BFS table, so the families span what
// that costs: the high-radix ones (hyperx at 30 ports, fat-tree at 32) pay
// the most loads per decision, and random-regular-4096 has the largest rows
// (8 KB each, 32 MB of table) at the smallest radix. `-cpuprofile` on one
// cell shows the routing share.
func BenchmarkGraphStep(b *testing.B) {
	families := []struct {
		name   string
		build  func() (*topology.Graph, error)
		lambda float64
	}{
		{"random-regular-256", func() (*topology.Graph, error) { return topology.NewRandomRegular(256, 4, 1) }, 0.05},
		{"random-regular-4096", func() (*topology.Graph, error) { return topology.NewRandomRegular(4096, 3, 1) }, 0.05},
		{"hyperx-16x16", func() (*topology.Graph, error) { return topology.NewHyperX(16, 16) }, 0.1},
		{"fat-tree-32x16", func() (*topology.Graph, error) { return topology.NewFatTree(32, 16) }, 0.1},
	}
	for _, engine := range []string{"buffered", "atomic"} {
		for _, fam := range families {
			b.Run(engine+"/"+fam.name, func(b *testing.B) {
				g, err := fam.build()
				if err != nil {
					b.Fatal(err)
				}
				algo, err := core.NewGraphAdaptive(g)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewSimulator(engine, Config{Algorithm: algo, Seed: 1})
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

// BenchmarkGraphBuild measures what a generated-graph spec costs before its
// first cycle: topology.NewRandomRegular — pairing, validation and the
// all-pairs BFS. core.NewGraphAdaptive over the result adds nothing to time
// (it borrows the graph's two tables; TestGraphAdaptiveBorrowsTables pins
// that at one allocation). `go test -run '^$' -bench GraphBuild
// ./internal/sim/` is the target to iterate on the BFS kernel.
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
	}
}
