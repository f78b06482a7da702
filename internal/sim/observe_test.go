package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// TestObservedDeterminismAcrossWorkers pins the observability contract:
// with a sampling observer attached, Metrics stay bit-identical to an
// unobserved run, and the canonical metric snapshots (worker-dependent
// fields zeroed) are bit-identical across worker counts — including the
// sampler's whole time series.
func TestObservedDeterminismAcrossWorkers(t *testing.T) {
	type outcome struct {
		m    Metrics
		snap obs.Snapshot
		ts   []obs.Sample
	}
	run := func(workers int, observe bool) outcome {
		a := core.NewHypercubeAdaptive(6)
		nodes := a.Topology().Nodes()
		cfg := Config{Algorithm: a, Seed: 12345, Workers: workers}
		var smp *obs.Sampler
		if observe {
			smp = obs.NewSampler(25)
			cfg.Observer = smp
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 3, 99)
		res, err := e.Run(context.Background(), src, StaticPlan(1_000_000))
		if err != nil {
			t.Fatalf("workers=%d observe=%v: %v", workers, observe, err)
		}
		out := outcome{m: res.Metrics, snap: res.Snapshot.Canonical()}
		if observe {
			if !res.Observed {
				t.Fatalf("workers=%d: observer attached but Observed=false", workers)
			}
			out.ts = smp.Samples
		}
		return out
	}

	base := run(1, false)
	want := run(1, true)
	if want.m != base.m {
		t.Fatalf("attaching an observer changed Metrics:\n with    %+v\n without %+v", want.m, base.m)
	}
	if want.snap.Counter(obs.CDelivered) != want.m.Delivered {
		t.Fatalf("snapshot delivered %d, metrics %d", want.snap.Counter(obs.CDelivered), want.m.Delivered)
	}
	for _, w := range []int{4, 7} {
		if got := run(w, false); got.m != base.m {
			t.Errorf("workers=%d unobserved Metrics diverged:\n got  %+v\n want %+v", w, got.m, base.m)
		}
		got := run(w, true)
		if got.m != want.m {
			t.Errorf("workers=%d observed Metrics diverged:\n got  %+v\n want %+v", w, got.m, want.m)
		}
		if got.snap != want.snap {
			t.Errorf("workers=%d canonical snapshot diverged:\n got  %+v\n want %+v", w, got.snap, want.snap)
		}
		if len(got.ts) != len(want.ts) {
			t.Errorf("workers=%d sampler series length %d, want %d", w, len(got.ts), len(want.ts))
			continue
		}
		for i := range got.ts {
			if got.ts[i] != want.ts[i] {
				t.Errorf("workers=%d sample %d diverged:\n got  %+v\n want %+v", w, i, got.ts[i], want.ts[i])
				break
			}
		}
	}
}

// TestObservedLatencyDeterministic holds the latency observer to the same
// standard as the metrics: its mean, deviation, percentiles and hop
// histogram are bit-identical at one, two (twice) and three workers, where
// the replayed deliveries come in different orders, and attaching it leaves
// Metrics as they are without it.
func TestObservedLatencyDeterministic(t *testing.T) {
	type summary struct {
		mean, sd uint64 // float bits
		p50, p99 int64
		hops     string
	}
	for _, a := range []core.Algorithm{core.NewHypercubeAdaptive(8), core.NewMeshAdaptive(16, 16)} {
		nodes := a.Topology().Nodes()
		run := func(workers int, lat *obs.Latency) Metrics {
			cfg := Config{Algorithm: a, Seed: 21, Workers: workers}
			if lat != nil {
				cfg.Observer = lat
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.6, 5)
			res, err := e.Run(context.Background(), src, DynamicPlan(100, 300))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", a.Name(), workers, err)
			}
			return res.Metrics
		}
		base := run(1, nil)
		var want summary
		for i, w := range []int{1, 2, 2, 3} {
			lat := obs.NewLatency()
			if m := run(w, lat); m != base {
				t.Fatalf("%s workers=%d: observed Metrics %+v, unobserved %+v", a.Name(), w, m, base)
			}
			if lat.Count() != base.Delivered {
				t.Fatalf("%s workers=%d: observer saw %d deliveries, engine reported %d", a.Name(), w, lat.Count(), base.Delivered)
			}
			got := summary{math.Float64bits(lat.Mean()), math.Float64bits(lat.StdDev()),
				lat.Percentile(50), lat.Percentile(99), fmt.Sprint(lat.HopHistogram())}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s workers=%d: latency summary %+v, at one worker %+v", a.Name(), w, got, want)
			}
		}
	}
}

// cancelAt cancels its context the first time OnCycle sees the target cycle.
type cancelAt struct {
	obs.Base
	at     int64
	cancel context.CancelFunc
	seen   int64
}

func (c *cancelAt) OnCycle(cycle int64, _ *obs.Snapshot) {
	c.seen = cycle
	if cycle == c.at {
		c.cancel()
	}
}

// TestRunCancellation checks that Run stops within one cycle of
// cancellation and hands back the partial result.
func TestRunCancellation(t *testing.T) {
	a := core.NewHypercubeAdaptive(6)
	nodes := a.Topology().Nodes()
	ctx, cancel := context.WithCancel(context.Background())
	obsrv := &cancelAt{at: 40, cancel: cancel}
	e, err := NewEngine(Config{Algorithm: a, Seed: 7, Workers: 2, Observer: obsrv})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.5, 3)
	res, err := e.Run(ctx, src, DynamicPlan(1000, 1000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Canceled {
		t.Fatal("RunResult.Canceled = false")
	}
	if res.Metrics.Cycles != obsrv.at+1 {
		t.Errorf("stopped at cycle %d, canceled during cycle %d", res.Metrics.Cycles, obsrv.at)
	}
	if res.Metrics.Injected == 0 {
		t.Error("partial metrics empty")
	}
	if !res.Observed || res.Snapshot.Counter(obs.CInjected) != res.Metrics.Injected {
		t.Errorf("partial snapshot injected=%d, metrics=%d",
			res.Snapshot.Counter(obs.CInjected), res.Metrics.Injected)
	}
}

// TestRunCancellationAtomic is the same contract on the atomic engine.
func TestRunCancellationAtomic(t *testing.T) {
	a := core.NewHypercubeAdaptive(5)
	nodes := a.Topology().Nodes()
	ctx, cancel := context.WithCancel(context.Background())
	obsrv := &cancelAt{at: 25, cancel: cancel}
	e, err := NewAtomicEngine(Config{Algorithm: a, Seed: 7, Observer: obsrv})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.5, 3)
	res, err := e.Run(ctx, src, DynamicPlan(1000, 1000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Canceled || res.Metrics.Cycles != obsrv.at+1 {
		t.Errorf("canceled=%v cycles=%d (canceled during cycle %d)", res.Canceled, res.Metrics.Cycles, obsrv.at)
	}
}

// TestRunDeadlineAlreadyExpired: a context that is already done must stop
// the run before the first cycle.
func TestRunDeadlineAlreadyExpired(t *testing.T) {
	a := core.NewHypercubeAdaptive(4)
	nodes := a.Topology().Nodes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := NewEngine(Config{Algorithm: a, Seed: 1, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 1, 1)
	res, err := e.Run(ctx, src, StaticPlan(0))
	if !errors.Is(err, context.Canceled) || !res.Canceled {
		t.Fatalf("err=%v canceled=%v", err, res.Canceled)
	}
	if res.Metrics.Cycles != 0 || res.Metrics.Injected != 0 {
		t.Errorf("expired context still simulated: %+v", res.Metrics)
	}
}
