package sim

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/traffic"
)

// TestOnDeliverHook checks the observer's delivery probe sees every packet
// exactly once with a plausible latency, on both engines.
func TestOnDeliverHook(t *testing.T) {
	for _, kind := range EngineKinds {
		var mu sync.Mutex
		seen := map[int64]int64{}
		e, err := NewSimulator(kind, Config{
			Algorithm: core.NewHypercubeAdaptive(5), Seed: 1,
			Observer: &probe{deliver: func(p core.Packet, lat int64) {
				mu.Lock()
				seen[p.ID] = lat
				mu.Unlock()
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Random{Nodes: 32}, 32, 3, 2)
		m, err := runStatic(e, src, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(seen)) != m.Delivered {
			t.Fatalf("%s: probe saw %d deliveries, engine reported %d", kind, len(seen), m.Delivered)
		}
		for id, lat := range seen {
			if lat < 1 || lat > m.LatencyMax {
				t.Fatalf("%s: packet %d: latency %d out of range", kind, id, lat)
			}
		}
	}
}

// TestWorkersExceedNodes: more workers than nodes must still partition
// correctly and deterministically.
func TestWorkersExceedNodes(t *testing.T) {
	a := core.NewHypercubeAdaptive(3) // 8 nodes
	run := func(workers int) Metrics {
		e, err := NewEngine(Config{Algorithm: a, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Random{Nodes: 8}, 8, 5, 2)
		m, err := runStatic(e, src, 100000)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := run(1), run(32); a != b {
		t.Errorf("32 workers on 8 nodes diverged:\n%+v\n%+v", a, b)
	}
}

// TestEngineReuse: consecutive runs on one engine start from clean state.
func TestEngineReuse(t *testing.T) {
	a := core.NewHypercubeAdaptive(5)
	e, err := NewEngine(Config{Algorithm: a, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var prev Metrics
	for i := 0; i < 3; i++ {
		src := traffic.NewStaticSource(traffic.Complement{Bits: 5}, 32, 2, 3)
		m, err := runStatic(e, src, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && m != prev {
			t.Fatalf("run %d differs from run %d:\n%+v\n%+v", i, i-1, m, prev)
		}
		prev = m
	}
}

// shortHops claims one hop less than the distance for every pair, so each
// delivery breaks the bound the kernel asserts.
type shortHops struct{ core.Algorithm }

func (a shortHops) MaxHops(src, dst int32) int {
	return a.Topology().Distance(int(src), int(dst)) - 1
}

// TestDeliverAssertsHopBound: delivery checks every packet against the
// algorithm's MaxHops, on both engines, with no switch to turn it off. One
// worker, so the panic is raised on the test's goroutine.
func TestDeliverAssertsHopBound(t *testing.T) {
	for _, kind := range EngineKinds {
		t.Run(kind, func(t *testing.T) {
			a := shortHops{core.NewHypercubeAdaptive(4)}
			e, err := NewSimulator(kind, Config{Algorithm: a, Seed: 1, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			src := traffic.NewStaticSource(traffic.Random{Nodes: 16}, 16, 1, 2)
			msg := func() (msg string) {
				defer func() { msg, _ = recover().(string) }()
				runStatic(e, src, 10_000)
				return ""
			}()
			if !strings.Contains(msg, " took ") || !strings.Contains(msg, " hops from ") {
				t.Errorf("run did not panic on the hop bound; recovered %q", msg)
			}
		})
	}
}

// TestDynamicWindowAccounting pins the measurement-window semantics: with
// warmup w and measurement m, attempts are counted only in [w, w+m).
func TestDynamicWindowAccounting(t *testing.T) {
	a := core.NewHypercubeAdaptive(4)
	e, err := NewEngine(Config{Algorithm: a, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewBernoulliSource(traffic.Random{Nodes: 16}, 16, 1.0, 2)
	m, err := runDynamic(e, src, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(16 * 100); m.Attempts != want {
		t.Errorf("attempts = %d, want %d", m.Attempts, want)
	}
	if m.Cycles != 150 {
		t.Errorf("cycles = %d, want 150", m.Cycles)
	}
}

// TestInjectionQueueBackpressure: with destinations all equal (an extreme
// hotspot permutation is impossible, so use a many-to-one pattern via
// Permutation with all-but-one node sending to node 0's neighborhood), the
// injection queue must throttle without losing packets.
func TestInjectionQueueBackpressure(t *testing.T) {
	n := 5
	nodes := int32(1 << n)
	sigma := make([]int32, nodes)
	for i := range sigma {
		sigma[i] = int32(i) ^ (nodes - 1) // complement: heavy contention
	}
	a := core.NewHypercubeAdaptive(n)
	e, err := NewEngine(Config{Algorithm: a, Seed: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewStaticSource(&traffic.Permutation{Label: "compl", Sigma: sigma}, int(nodes), 20, 2)
	m, err := runStatic(e, src, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered != int64(nodes)*20 {
		t.Errorf("delivered %d, want %d", m.Delivered, int64(nodes)*20)
	}
	if m.MaxQueue > 2 {
		t.Errorf("queue occupancy %d exceeded capacity 2", m.MaxQueue)
	}
}

// TestConservationEveryCycle asserts Injected == Delivered + Dropped +
// State().Packets() at every cycle boundary of a loaded dynamic run, on both
// engines, with and without a fault plan. The buffered runs take three
// workers where the algorithm allows it, and the 256-node cube gives each
// of them a shard: State, read from OnCycle, copies at the barrier (a CI
// step runs this under -race).
func TestConservationEveryCycle(t *testing.T) {
	for _, a := range []core.Algorithm{
		core.NewHypercubeAdaptive(8),
		core.NewShuffleExchangeAdaptive(4),
		core.NewTorusAdaptive(4, 4),
		core.NewCCCAdaptive(3),
	} {
		t.Run(a.Name(), func(t *testing.T) {
			for _, kind := range EngineKinds {
				for _, faults := range []bool{false, true} {
					var e Simulator
					cfg := Config{Algorithm: a, Seed: 5, QueueCap: 3, Workers: 3, Observer: &probe{cycle: func(cycle int64) {
						if m, n := e.Metrics(), e.State().Packets(); m.Injected != m.Delivered+m.Dropped+int64(n) {
							t.Fatalf("%s: cycle %d: injected %d != delivered %d + dropped %d + held %d",
								kind, cycle, m.Injected, m.Delivered, m.Dropped, n)
						}
					}}}
					if a.Props().Credits {
						cfg.Workers = 1
					}
					if faults {
						cfg.Faults = (&fault.Plan{}).FailLink(1, 0, 50, 100).FailNode(3, 100, 50)
					}
					var err error
					if e, err = NewSimulator(kind, cfg); err != nil {
						t.Fatal(err)
					}
					nodes := a.Topology().Nodes()
					m, err := runDynamic(e, traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.8, 7), 0, 400)
					if err != nil {
						t.Fatal(err)
					}
					if m.Injected == 0 || faults != (m.Dropped > 0) {
						t.Fatalf("%s, faults %v: injected %d, dropped %d", kind, faults, m.Injected, m.Dropped)
					}
				}
			}
		})
	}
}

// TestCutThroughLatency pins the virtual cut-through timing: after the
// first store-and-forward hop out of the source queue, every uncongested
// hop costs one cycle (input buffer -> output buffer -> link in the same
// cycle), so the complement permutation with one packet per node delivers
// in exactly n+2 cycles instead of store-and-forward's 2n+1.
func TestCutThroughLatency(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		a := core.NewHypercubeAdaptive(n)
		src := traffic.NewStaticSource(traffic.Complement{Bits: n}, 1<<n, 1, 1)
		m := runStaticBuffered(t, a, src, Config{Seed: 42, CutThrough: true})
		if want := int64(n + 2); m.LatencyMax != want || m.AvgLatency() != float64(want) {
			t.Errorf("n=%d: latency = %.2f/%d, want exactly %d", n, m.AvgLatency(), m.LatencyMax, want)
		}
		if m.Delivered != int64(1<<n) {
			t.Errorf("n=%d: delivered %d", n, m.Delivered)
		}
	}
}

// TestCutThroughUnderPressure: cut-through must not break deadlock freedom
// or conservation in the congested regime, including for the credited
// shuffle-exchange moves (which must bypass cut-through).
func TestCutThroughUnderPressure(t *testing.T) {
	for _, a := range []core.Algorithm{
		core.NewHypercubeAdaptive(5),
		core.NewMeshAdaptive(5, 5),
		core.NewShuffleExchangeAdaptive(6),
		core.NewTorusAdaptive(5, 5),
		core.NewCCCAdaptive(4),
	} {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			nodes := a.Topology().Nodes()
			src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 8, 3)
			m := runStaticBuffered(t, a, src, Config{QueueCap: 2, Seed: 13, CutThrough: true})
			if m.Delivered != int64(nodes*8) {
				t.Fatalf("delivered %d, want %d", m.Delivered, nodes*8)
			}
		})
	}
}

// TestCutThroughDeterministicParallel: cut-through with multiple workers
// must stay bit-deterministic.
func TestCutThroughDeterministicParallel(t *testing.T) {
	run := func(workers int) Metrics {
		a := core.NewHypercubeAdaptive(6)
		src := traffic.NewBernoulliSource(traffic.Random{Nodes: 64}, 64, 0.8, 3)
		e, err := NewEngine(Config{Algorithm: a, Seed: 3, Workers: workers, CutThrough: true})
		if err != nil {
			t.Fatal(err)
		}
		m, err := runDynamic(e, src, 100, 300)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := run(1), run(4); a != b {
		t.Errorf("cut-through parallel run diverged:\n%+v\n%+v", a, b)
	}
}
