package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// BenchmarkHotPathDim10 times the buffered engine's no-fault hot path on
// the paper's λ=1 dynamic random workload (dim-10 hypercube, 500 cycles).
// It is the in-tree twin of cmd/enginebench's dim-10 cell: use it with
// -count and benchstat-style min/median comparison when checking a hot-loop
// change, since single runs on a shared host swing several percent.
func BenchmarkHotPathDim10(b *testing.B) {
	a := core.NewHypercubeAdaptive(10)
	nodes := a.Topology().Nodes()
	for b.Loop() {
		e, err := NewEngine(Config{Algorithm: a, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 1.0, 7)
		if _, err := runDynamic(e, src, 50, 450); err != nil {
			b.Fatal(err)
		}
	}
}
