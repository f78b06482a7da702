package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro"
)

// TestSoakRandomConfigurations drives seeded-random combinations of
// algorithm, pattern, policy, queue capacity, engine and injection model
// through the public API and requires every run to complete without
// deadlock and without losing packets. It is the repository's fuzz-style
// robustness net; skipped under -short.
func TestSoakRandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	algos := []string{
		"hypercube-adaptive:6", "hypercube-hung:6", "hypercube-ecube:5",
		"mesh-adaptive:6x6", "mesh-twophase:6x6", "mesh-xy:6x6",
		"shuffle-adaptive:5", "shuffle-static:5", "shuffle-eager:5",
		"torus-adaptive:5x5", "torus-adaptive:6x6", "ccc-adaptive:4",
		"mesh-adaptive:4x3x3", "torus-adaptive:4x3x3",
		"graph-adaptive:random-regular:n=32,k=4,seed=9",
		"graph-adaptive:dragonfly:a=3,g=7",
	}
	policies := []repro.Policy{
		repro.PolicyFirstFree, repro.PolicyRandom,
		repro.PolicyStaticFirst, repro.PolicyLastFree,
	}
	rng := rand.New(rand.NewSource(20260704))
	for i := 0; i < 60; i++ {
		spec := algos[rng.Intn(len(algos))]
		pol := policies[rng.Intn(len(policies))]
		cap := 2 + rng.Intn(6)
		perNode := 1 + rng.Intn(8)
		seed := rng.Int63()
		headOnly := rng.Intn(4) == 0
		atomic := rng.Intn(4) == 0
		name := fmt.Sprintf("%02d/%s/pol=%v/cap=%d/per=%d/head=%v/atomic=%v",
			i, spec, pol, cap, perNode, headOnly, atomic)
		t.Run(name, func(t *testing.T) {
			algo, err := repro.NewAlgorithm(spec)
			if err != nil {
				t.Fatal(err)
			}
			pat, err := repro.NewPattern("random", algo, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := repro.Config{
				Algorithm: algo, QueueCap: cap, Policy: pol,
				Seed: seed, HeadOnly: headOnly,
			}
			src := repro.NewStaticTraffic(pat, algo, perNode, seed+1)
			want := int64(algo.Topology().Nodes() * perNode)
			kind := "buffered"
			if atomic {
				kind = "atomic"
			}
			eng, err := repro.NewSimulator(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), src, repro.StaticPlan(3_000_000))
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.Delivered != want {
				t.Fatalf("delivered %d of %d", m.Delivered, want)
			}
			if m.MaxQueue > cap {
				t.Fatalf("queue occupancy %d exceeded capacity %d", m.MaxQueue, cap)
			}
		})
	}
}
