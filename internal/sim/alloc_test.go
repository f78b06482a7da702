// Steady-state allocation regression: both engines' Step must not allocate
// once a run is warmed up, with the metrics core on or off — the zero-alloc
// property the hot-loop scratch buffers exist to provide. Excluded from
// -race builds: race instrumentation inserts allocations of its own.
//
//go:build !race

package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		engine  string
		algo    string
		workers int
		metrics bool
		observe bool   // attach an observer: deliveries are buffered for the merge
		source  string // "" = bernoulli
		noBatch bool
		cold    bool // no warm-up: measure from the second cycle of the run
	}{
		{engine: "buffered", algo: "hypercube", workers: 1},
		{engine: "buffered", algo: "hypercube", workers: 1, metrics: true},
		{engine: "buffered", algo: "hypercube", workers: 2},
		{engine: "buffered", algo: "hypercube", workers: 2, metrics: true},
		{engine: "atomic", algo: "hypercube", workers: 1},
		{engine: "atomic", algo: "hypercube", workers: 1, metrics: true},
		{engine: "buffered", algo: "hypercube", workers: 1, observe: true},
		{engine: "buffered", algo: "hypercube", workers: 2, observe: true},
		{engine: "atomic", algo: "hypercube", workers: 1, observe: true},
		// The sources implement BatchSource, so the cases above exercise the
		// batched injection path; noBatch hides FillCycle (scalarOnly) to
		// keep the scalar path covered too.
		{engine: "buffered", algo: "hypercube", workers: 1, noBatch: true},
		{engine: "buffered", algo: "hypercube", workers: 2, noBatch: true},
		{engine: "atomic", algo: "hypercube", workers: 1, noBatch: true},
		// The other traffic models must be allocation-free on both paths:
		// bursty MMPP, the time-varying square wave, and trace replay from a
		// pre-opened file (incremental decode, no per-packet allocation).
		{engine: "buffered", algo: "hypercube", workers: 1, source: "mmpp"},
		{engine: "buffered", algo: "hypercube", workers: 2, source: "mmpp"},
		{engine: "atomic", algo: "hypercube", workers: 1, source: "mmpp"},
		{engine: "buffered", algo: "hypercube", workers: 1, source: "onoff"},
		{engine: "buffered", algo: "hypercube", workers: 1, source: "trace"},
		{engine: "buffered", algo: "hypercube", workers: 2, source: "trace"},
		{engine: "atomic", algo: "hypercube", workers: 1, source: "trace"},
		{engine: "buffered", algo: "hypercube", workers: 1, source: "mmpp", noBatch: true},
		// Graph-adaptive decisions are reads of the graph's distance table,
		// so nothing is built during a run, not even on the first packets
		// toward a destination: the graph-2304 rows (a size whose routing
		// state was once built on first use, a slab per 32 destinations)
		// measure a cold run.
		{engine: "buffered", algo: "graph", workers: 1},
		{engine: "buffered", algo: "graph", workers: 1, metrics: true},
		{engine: "buffered", algo: "graph", workers: 2},
		{engine: "atomic", algo: "graph", workers: 1},
		{engine: "atomic", algo: "graph", workers: 1, metrics: true},
		{engine: "buffered", algo: "graph-2304", workers: 1, cold: true},
		{engine: "atomic", algo: "graph-2304", workers: 1, cold: true},
	}
	for _, tc := range cases {
		source := tc.source
		if source == "" {
			source = "bernoulli"
		}
		name := fmt.Sprintf("%s/%s/workers=%d/metrics=%v/%s/nobatch=%v",
			tc.engine, tc.algo, tc.workers, tc.metrics, source, tc.noBatch)
		if tc.observe {
			name += "/observed"
		}
		t.Run(name, func(t *testing.T) {
			var algo core.Algorithm = core.NewHypercubeAdaptive(6)
			lambda := 1.0
			if tc.algo != "hypercube" {
				n, k := 64, 4
				if tc.algo == "graph-2304" {
					n, k = 2304, 3
				}
				g, err := topology.NewRandomRegular(n, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				if algo, err = core.NewGraphAdaptive(g); err != nil {
					t.Fatal(err)
				}
				lambda = 0.3 // below saturation, matching the bench rates
			}
			cfg := Config{Algorithm: algo, Seed: 1, Workers: tc.workers, Metrics: tc.metrics}
			delivered := int64(0)
			if tc.observe {
				cfg.Observer = &probe{deliver: func(core.Packet, int64) { delivered++ }}
			}
			eng, err := NewSimulator(tc.engine, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes := algo.Topology().Nodes()
			var src TrafficSource
			switch source {
			case "bernoulli":
				src = traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, lambda, 3)
			case "mmpp":
				src = traffic.NewMMPP(traffic.Random{Nodes: nodes}, nodes, 0.9, 0.05, 0.1, 0.1, 3)
			case "onoff":
				src = traffic.NewOnOff(traffic.Random{Nodes: nodes}, nodes, 0.9, 0.1, 64, 32, 3)
			case "trace":
				src = traffic.NewTraceSource(openAllocTrace(t, tc.engine, nodes), nodes)
			}
			if tc.noBatch {
				src = scalarOnly{src}
			}
			// A plan far longer than the test steps, so Step never completes
			// (completion tears down run state, which is not the steady state).
			eng.Start(src, DynamicPlan(0, 1<<30))
			if tc.noBatch && kernelOf(eng).rs.batch != nil {
				t.Fatal("the scalarOnly source took the batched path")
			}
			for i := 0; i < 200 && !tc.cold; i++ {
				if done, err := eng.Step(); done {
					t.Fatalf("warmup finished early: %v", err)
				}
			}
			// AllocsPerRun pins GOMAXPROCS to 1 for the measurement; the
			// worker pool's parked goroutines then make progress through its
			// yield path, so multi-worker cells stay measurable.
			allocs := testing.AllocsPerRun(100, func() {
				if done, err := eng.Step(); done {
					t.Fatalf("run finished mid-measurement: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("Step allocates %.1f times per cycle in steady state, want 0", allocs)
			}
			if m := eng.Metrics(); tc.observe && delivered != m.Delivered {
				t.Errorf("observer saw %d deliveries, engine reported %d", delivered, m.Delivered)
			}
		})
	}
}

// openAllocTrace records a short saturated run to a temp file and reopens
// it, so the trace-replay alloc cases decode from a real pre-opened file.
func openAllocTrace(t *testing.T, engine string, nodes int) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSimulator(engine, Config{Algorithm: core.NewHypercubeAdaptive(6), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &traffic.RecordingSource{
		Inner: traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 1.0, 3),
		Cap:   1,
		W:     f,
	}
	if _, err := e.Run(context.Background(), rec, DynamicPlan(0, 600)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// TestTraceReplayMillionsZeroAlloc is the acceptance run for the trace
// pipeline at scale: a recorded run of over two million packets replays
// bit-exactly from disk, with zero steady-state allocations per cycle
// measured mid-replay. The run is dim-10 at saturation, so it also soaks the
// batched injection path's word-level occupancy scan.
func TestTraceReplayMillionsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-packet run")
	}
	const dim = 10
	const targetPackets = 2_100_000
	mkEngine := func() Simulator {
		e, err := NewSimulator("buffered", Config{
			Algorithm: core.NewHypercubeAdaptive(dim),
			Seed:      5,
			Workers:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	nodes := 1 << dim

	// Probe the sustained injection rate, then size the recorded run to
	// clear the packet target.
	probe, err := mkEngine().Run(context.Background(),
		traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 1.0, 9),
		DynamicPlan(0, 300))
	if err != nil {
		t.Fatal(err)
	}
	perCycle := float64(probe.Metrics.Injected) / 300
	cycles := int64(targetPackets/perCycle) + 100

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := &traffic.RecordingSource{
		Inner: traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 1.0, 9),
		Cap:   1,
		W:     f,
	}
	res1, err := mkEngine().Run(context.Background(), rec, DynamicPlan(0, cycles))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if res1.Metrics.Injected < 2_000_000 {
		t.Fatalf("recorded run injected %d packets, want >= 2M", res1.Metrics.Injected)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewTraceSource(rf, nodes)
	e := mkEngine()
	e.Start(src, DynamicPlan(0, cycles))
	for i := 0; i < 200; i++ {
		if done, err := e.Step(); done {
			t.Fatalf("replay finished early: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if done, err := e.Step(); done {
			t.Fatalf("replay finished mid-measurement: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("trace replay allocates %.1f times per cycle in steady state, want 0", allocs)
	}
	for {
		done, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	res2, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if res1.Metrics != res2.Metrics {
		t.Errorf("replay diverged from recording:\n recorded %+v\n replayed %+v", res1.Metrics, res2.Metrics)
	}
}
