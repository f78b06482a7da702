// Adversarial-permutation search (-advsearch): a hill-climb over fixed
// permutation patterns (traffic.Permutation) maximizing tail latency.
// Random traffic averages away worst-case contention; this search looks
// through the permutation space for the σ that hurts a routing algorithm
// most, an adversarial workload to report next to the paper's four fixed
// patterns.
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// advEval is one scored workload of the search.
type advEval struct {
	Iter     int // 0 is the initial random permutation
	P50, P99 int64
	Mean     float64
	Accepted bool // became the incumbent
}

// worse orders evaluations by p99, then p50, then mean latency.
func (a advEval) worse(b advEval) bool {
	if a.P99 != b.P99 {
		return a.P99 > b.P99
	}
	if a.P50 != b.P50 {
		return a.P50 > b.P50
	}
	return a.Mean > b.Mean
}

func latencyEval(lat *obs.Latency) advEval {
	return advEval{P50: lat.Percentile(50), P99: lat.Percentile(99), Mean: lat.Mean()}
}

// advResult is the outcome of a search: the worst permutation found and the
// trajectory that led there.
type advResult struct {
	Nodes int
	// Baseline scores the spec's own pattern (random by default) under the
	// identical plan: the tail the adversarial one is compared against.
	Baseline advEval
	Best     advEval
	Sigma    []int32 // the worst permutation found
	Evals    []advEval
}

// advSearch hill-climbs over permutations of the compiled spec's nodes.
// Every candidate runs on an engine c builds, so the spec's engine, queue
// capacity, policy, faults and workers all apply, under Bernoulli traffic
// at the spec's lambda, seed and window; the worst p99 (ties broken by p50,
// then mean) is kept. The objective is noise-free, so a candidate is
// accepted only for a genuinely worse tail, and the search is reproducible
// from the spec. swaps is the number of random transpositions separating a
// candidate from the incumbent (0: max(1, nodes/64)).
func advSearch(ctx context.Context, c *exec.Compiled, iters, swaps int) (advResult, error) {
	_, cfg := c.Config(0, nil)
	nodes := cfg.Algorithm.Topology().Nodes()
	if swaps == 0 {
		swaps = max(1, nodes/64)
	}
	res := advResult{Nodes: nodes}

	lat := obs.NewLatency()
	if _, err := c.Run(ctx, 0, lat); err != nil {
		return res, fmt.Errorf("advsearch: baseline: %w", err)
	}
	res.Baseline = latencyEval(lat)

	s := c.Spec
	score := func(sigma []int32) (advEval, error) {
		lat := obs.NewLatency()
		eng, err := c.Build(s.Workers, lat)
		if err != nil {
			return advEval{}, err
		}
		pat := &traffic.Permutation{Label: "adversary", Sigma: sigma}
		src := traffic.NewBernoulliSource(pat, nodes, s.Lambda, s.Seed+2)
		if _, err := eng.Run(ctx, src, sim.DynamicPlan(s.Warmup, s.Measure)); err != nil {
			return advEval{}, err
		}
		return latencyEval(lat), nil
	}

	rng := xrand.New(s.Seed+11, 0)
	sigma := make([]int32, nodes)
	rng.Perm(sigma)
	best, err := score(sigma)
	if err != nil {
		return res, err
	}
	best.Accepted = true
	res.Evals = append(res.Evals, best)

	cand := make([]int32, nodes)
	for iter := 1; iter <= iters; iter++ {
		copy(cand, sigma)
		for range swaps {
			i, j := rng.Intn(nodes), rng.Intn(nodes)
			cand[i], cand[j] = cand[j], cand[i]
		}
		ev, err := score(cand)
		if err != nil {
			return res, err
		}
		ev.Iter = iter
		if ev.worse(best) {
			ev.Accepted = true
			copy(sigma, cand)
			best = ev
		}
		res.Evals = append(res.Evals, ev)
	}
	res.Best = best
	res.Sigma = sigma
	return res, nil
}

// formatAdv renders a search of algo (the -algo value) as a short report.
func formatAdv(algo string, c *exec.Compiled, r advResult) string {
	pattern, _, _ := strings.Cut(c.Spec.Pattern, ":")
	s := fmt.Sprintf("adversarial permutation search: %s (%d nodes, lambda=%.3g, %d evals)\n",
		algo, r.Nodes, c.Spec.Lambda, len(r.Evals))
	s += fmt.Sprintf("  %s baseline: p50=%d p99=%d\n", pattern, r.Baseline.P50, r.Baseline.P99)
	s += fmt.Sprintf("  worst found:     p50=%d p99=%d mean=%.2f\n", r.Best.P50, r.Best.P99, r.Best.Mean)
	for _, ev := range r.Evals {
		mark := " "
		if ev.Accepted {
			mark = "*"
		}
		s += fmt.Sprintf("  %s iter %3d: p50=%4d p99=%4d mean=%7.2f\n", mark, ev.Iter, ev.P50, ev.P99, ev.Mean)
	}
	return s
}
