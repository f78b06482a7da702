package main

import (
	"testing"

	"repro"
)

// TestLikeAlgorithmMatchesRoute: the packet algorithm patterns are built on
// must live on the wormhole route's own network. Deriving it from the spec
// string once turned side "8x8" into a 4096-node torus-adaptive:8x8x8x8.
func TestLikeAlgorithmMatchesRoute(t *testing.T) {
	for spec, nodes := range map[string]int{
		"wh-torus-dor:8x8":          64,
		"wh-torus-dor:8":            64,
		"wh-torus-adaptive:4x5x3":   60,
		"wh-hypercube-adaptive:6":   64,
		"wh-hypercube-nonminimal:5": 32,
	} {
		route, err := repro.NewWormholeRoute(spec)
		if err != nil {
			t.Fatal(err)
		}
		like, err := likeAlgorithm(route)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if got := like.Topology().Nodes(); got != nodes || got != route.Topology().Nodes() {
			t.Errorf("%s: pattern network has %d nodes, route %d, want %d", spec, got, route.Topology().Nodes(), nodes)
		}
	}
}
