package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// BenchmarkHotPathDim10 times the buffered engine's no-fault hot path on
// the paper's λ=1 dynamic random workload (dim-10 hypercube, 500 cycles),
// once with batched injection (batch) and once on the scalar per-node path
// (scalar, the source wrapped in scalarOnly): a same-binary A/B pair. Use it with
// -count and a fastest-of or median comparison when checking a hot-loop
// change, since single runs on a shared host swing several percent.
func BenchmarkHotPathDim10(b *testing.B) {
	a := core.NewHypercubeAdaptive(10)
	nodes := a.Topology().Nodes()
	for _, tc := range []struct {
		name    string
		noBatch bool
	}{{"batch", false}, {"scalar", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for b.Loop() {
				e, err := NewEngine(Config{Algorithm: a, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				var src TrafficSource = traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 1.0, 7)
				if tc.noBatch {
					src = scalarOnly{src}
				}
				runInjecting(b, e, src, DynamicPlan(50, 450), !tc.noBatch)
			}
		})
	}
}
