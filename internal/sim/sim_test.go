package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// runStatic drains src on either engine and returns the run's Metrics.
func runStatic(e Simulator, src TrafficSource, maxCycles int64) (Metrics, error) {
	res, err := e.Run(context.Background(), src, StaticPlan(maxCycles))
	return res.Metrics, err
}

// runDynamic runs a warmup+measure window of dynamic injection.
func runDynamic(e Simulator, src TrafficSource, warmup, measure int64) (Metrics, error) {
	res, err := e.Run(context.Background(), src, DynamicPlan(warmup, measure))
	return res.Metrics, err
}

// runStaticBuffered is a test helper: buffered engine, static injection.
func runStaticBuffered(t *testing.T, a core.Algorithm, src TrafficSource, cfg Config) Metrics {
	t.Helper()
	cfg.Algorithm = a
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := runStatic(e, src, 1_000_000)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	return m
}

// TestLatencyCalibrationComplement pins the timing model: with one packet
// per node and the complement permutation on an uncongested run, every
// packet travels exactly n hops and the latency must be exactly 2n+1 —
// Table 2's closed form.
func TestLatencyCalibrationComplement(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		a := core.NewHypercubeAdaptive(n)
		src := traffic.NewStaticSource(traffic.Complement{Bits: n}, 1<<n, 1, 1)
		m := runStaticBuffered(t, a, src, Config{Seed: 42})
		want := int64(2*n + 1)
		if m.LatencyMax != want {
			t.Errorf("n=%d: Lmax = %d, want %d", n, m.LatencyMax, want)
		}
		if m.AvgLatency() != float64(want) {
			t.Errorf("n=%d: Lavg = %.3f, want %d", n, m.AvgLatency(), want)
		}
		if m.Delivered != int64(1<<n) {
			t.Errorf("n=%d: delivered %d, want %d", n, m.Delivered, 1<<n)
		}
	}
}

// TestLatencyCalibrationRandom checks Table 1's shape: with one packet per
// node and random destinations the average latency is ~ 2*(n/2)+1 = n+1.
func TestLatencyCalibrationRandom(t *testing.T) {
	n := 8
	a := core.NewHypercubeAdaptive(n)
	src := traffic.NewStaticSource(traffic.Random{Nodes: 1 << n}, 1<<n, 1, 7)
	m := runStaticBuffered(t, a, src, Config{Seed: 42})
	if avg := m.AvgLatency(); avg < float64(n)-0.5 || avg > float64(n)+2.0 {
		t.Errorf("Lavg = %.2f, want ~%d", avg, n+1)
	}
}

// TestConservation checks that every injected packet is delivered exactly
// once, for every algorithm, on the buffered engine (the atomic engine is held
// to a reference stepper by TestAtomicMatchesReference).
func TestConservation(t *testing.T) {
	algos := []core.Algorithm{
		core.NewHypercubeAdaptive(4),
		core.NewHypercubeHung(4),
		core.NewHypercubeECube(4),
		core.NewMeshAdaptive(4, 4),
		core.NewMeshTwoPhase(4, 4),
		core.NewMeshXY(4, 4),
		core.NewShuffleExchangeAdaptive(4),
		core.NewShuffleExchangeStatic(4),
		core.NewTorusAdaptive(4, 4),
	}
	for _, a := range algos {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			nodes := a.Topology().Nodes()
			inner := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 3, 5)
			rec := &traffic.RecordingSource{Inner: inner}
			m := runStaticBuffered(t, a, rec, Config{Seed: 9})
			if int(m.Injected) != len(rec.Taken) {
				t.Errorf("injected %d, source recorded %d", m.Injected, len(rec.Taken))
			}
			if m.Delivered != m.Injected {
				t.Errorf("delivered %d of %d", m.Delivered, m.Injected)
			}
			if m.InFlight != 0 {
				t.Errorf("in flight after drain: %d", m.InFlight)
			}
			if want := int64(nodes * 3); m.Injected != want {
				t.Errorf("injected %d, want %d", m.Injected, want)
			}

		})
	}
}

// TestDeterminism: identical configurations produce identical metrics, and
// the parallel engine matches the sequential one exactly.
func TestDeterminism(t *testing.T) {
	run := func(workers int, seed int64) Metrics {
		a := core.NewHypercubeAdaptive(6)
		src := traffic.NewBernoulliSource(traffic.Random{Nodes: 64}, 64, 1.0, seed)
		e, err := NewEngine(Config{Algorithm: a, Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		m, err := runDynamic(e, src, 100, 300)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a1, a2 := run(1, 3), run(1, 3)
	if a1 != a2 {
		t.Errorf("same seed, different metrics:\n%+v\n%+v", a1, a2)
	}
	p := run(4, 3)
	if a1 != p {
		t.Errorf("parallel run differs from sequential:\n%+v\n%+v", a1, p)
	}
	b := run(1, 4)
	if a1 == b {
		t.Error("different seeds produced identical metrics (suspicious)")
	}
}

// brokenRing is a deliberately deadlock-prone algorithm: a single queue
// class on a unidirectional ring with no ordering at all. Filling the ring
// wedges it; the watchdog must catch this.
type brokenRing struct {
	core.Derived
	torus *topology.Torus
}

func newBrokenRing() *brokenRing {
	b := &brokenRing{torus: topology.NewTorus(6)}
	b.Derived = core.Derive(b)
	return b
}

func (b *brokenRing) Name() string                                    { return "broken-ring" }
func (b *brokenRing) Topology() topology.Topology                     { return b.torus }
func (b *brokenRing) NumClasses() int                                 { return 1 }
func (b *brokenRing) ClassName(core.QueueClass) string                { return "q" }
func (b *brokenRing) Props() core.Props                               { return core.Props{} }
func (b *brokenRing) MaxHops(src, dst int32) int                      { return b.torus.Nodes() }
func (b *brokenRing) Inject(src, dst int32) (core.QueueClass, uint32) { return 0, 0 }

func (b *brokenRing) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	// Always move +1 around dimension 0, with no dateline: a textbook
	// store-and-forward deadlock.
	*pm = core.PortMasks{PerPort: true, StaticMask: 1}
	return true
}

// TestWatchdogCatchesDeadlock wedges the broken ring and checks both
// engines report ErrDeadlock rather than spinning forever.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	ring := newBrokenRing()
	mk := func() TrafficSource {
		// Every node floods packets to the node 3 ahead: the ring wedges.
		sigma := make([]int32, 6)
		for i := range sigma {
			sigma[i] = int32((i + 3) % 6)
		}
		return traffic.NewStaticSource(&traffic.Permutation{Label: "shift3", Sigma: sigma}, 6, 10, 1)
	}
	cfg := Config{Algorithm: ring, QueueCap: 1}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dl *ErrDeadlock
	if _, err := runStatic(e, mk(), 1_000_000); !errors.As(err, &dl) {
		t.Errorf("buffered engine: expected ErrDeadlock, got %v", err)
	}
	ae, err := NewAtomicEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runStatic(ae, mk(), 1_000_000); !errors.As(err, &dl) {
		t.Errorf("atomic engine: expected ErrDeadlock, got %v", err)
	}
}

// TestNoDeadlockUnderPressure floods every verified algorithm with heavy
// static traffic through tiny queues — the adversarial regime for deadlock —
// and requires completion on both engines. The shuffle-exchange instances
// include the degenerate cycles that need the bubble guard (QueueCap 2 is
// its minimum).
func TestNoDeadlockUnderPressure(t *testing.T) {
	algos := []core.Algorithm{
		core.NewHypercubeAdaptive(5),
		core.NewHypercubeHung(5),
		core.NewMeshAdaptive(5, 5),
		core.NewMeshTwoPhase(5, 5),
		core.NewMeshXY(5, 5),
		core.NewShuffleExchangeAdaptive(4),
		core.NewShuffleExchangeAdaptive(6),
		core.NewShuffleExchangeStatic(4),
		core.NewShuffleExchangeEager(6),
		core.NewCCCAdaptive(4),
		core.NewCCCStatic(3),
		core.NewTorusAdaptive(4, 4),
		core.NewTorusAdaptive(5, 5),
	}
	for _, a := range algos {
		a := a
		t.Run(a.Name()+"/"+a.Topology().Name(), func(t *testing.T) {
			nodes := a.Topology().Nodes()
			for _, cap := range []int{2, 5} {
				// Adversarial selection: deadlock freedom must not depend
				// on the policy being benign.
				srcAdv := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 4, 3)
				mAdv := runStaticBuffered(t, a, srcAdv, Config{QueueCap: cap, Seed: 13, Policy: PolicyLastFree})
				if mAdv.Delivered != int64(nodes*4) {
					t.Fatalf("cap=%d adversarial policy: delivered %d, want %d", cap, mAdv.Delivered, nodes*4)
				}
				src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 8, 3)
				m := runStaticBuffered(t, a, src, Config{QueueCap: cap, Seed: 13})
				if m.Delivered != int64(nodes*8) {
					t.Fatalf("cap=%d: delivered %d, want %d", cap, m.Delivered, nodes*8)
				}
				if m.MaxQueue > cap {
					t.Fatalf("cap=%d: queue occupancy reached %d", cap, m.MaxQueue)
				}
				ae, err := NewAtomicEngine(Config{Algorithm: a, QueueCap: cap, Seed: 13})
				if err != nil {
					t.Fatal(err)
				}
				src2 := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 8, 3)
				m2, err := runStatic(ae, src2, 1_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if m2.Delivered != int64(nodes*8) {
					t.Fatalf("atomic cap=%d: delivered %d, want %d", cap, m2.Delivered, nodes*8)
				}
			}
		})
	}
}

// TestDynamicRunSmoke checks the λ=1 dynamic model's observables are sane.
func TestDynamicRunSmoke(t *testing.T) {
	a := core.NewHypercubeAdaptive(6)
	src := traffic.NewBernoulliSource(traffic.Random{Nodes: 64}, 64, 1.0, 21)
	e, err := NewEngine(Config{Algorithm: a, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	m, err := runDynamic(e, src, 200, 500)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles != 700 {
		t.Errorf("cycles = %d, want 700", m.Cycles)
	}
	// λ=1: every node attempts every measured cycle.
	if want := int64(64 * 500); m.Attempts != want {
		t.Errorf("attempts = %d, want %d", m.Attempts, want)
	}
	ir := m.InjectionRate()
	if ir <= 0.3 || ir > 1.0 {
		t.Errorf("I_r = %.2f out of plausible range", ir)
	}
	if avg := m.AvgLatency(); avg < 7 || avg > 40 {
		t.Errorf("Lavg = %.2f out of plausible range", avg)
	}
	if m.Measured == 0 || m.LatencyMax < int64(avgInt(m)) {
		t.Errorf("inconsistent latency stats: %+v", m)
	}
}

func avgInt(m Metrics) int { return int(m.AvgLatency()) }

// TestDynamicMovesOnlyForAdaptive: the static ablations must never take a
// dynamic link; the adaptive scheme under a congesting permutation must.
func TestDynamicMovesOnlyForAdaptive(t *testing.T) {
	n := 6
	nodes := 1 << n
	mk := func(a core.Algorithm) Metrics {
		src := traffic.NewStaticSource(traffic.Complement{Bits: n}, nodes, int64ToInt(8), 3)
		return runStaticBuffered(t, a, src, Config{Seed: 17})
	}
	if m := mk(core.NewHypercubeHung(n)); m.DynamicMoves != 0 {
		t.Errorf("hung scheme took %d dynamic moves", m.DynamicMoves)
	}
	if m := mk(core.NewHypercubeAdaptive(n)); m.DynamicMoves == 0 {
		t.Error("adaptive scheme took no dynamic moves under complement load")
	}
}

func int64ToInt(v int64) int { return int(v) }

// TestAdaptiveBeatsHungOnComplement is the paper's headline ablation in
// miniature: under the complement permutation with n packets per node, the
// fully-adaptive scheme must finish at least as fast as the hung DAG
// without dynamic links (it avoids the congestion around node 1...1).
func TestAdaptiveBeatsHungOnComplement(t *testing.T) {
	n := 7
	nodes := 1 << n
	run := func(a core.Algorithm) Metrics {
		src := traffic.NewStaticSource(traffic.Complement{Bits: n}, nodes, n, 3)
		return runStaticBuffered(t, a, src, Config{Seed: 29})
	}
	ad := run(core.NewHypercubeAdaptive(n))
	hung := run(core.NewHypercubeHung(n))
	if ad.AvgLatency() > hung.AvgLatency() {
		t.Errorf("adaptive Lavg %.2f > hung Lavg %.2f", ad.AvgLatency(), hung.AvgLatency())
	}
	if ad.Cycles > hung.Cycles {
		t.Errorf("adaptive drained in %d cycles, hung in %d", ad.Cycles, hung.Cycles)
	}
}

// TestPolicies exercises all selection policies end to end.
func TestPolicies(t *testing.T) {
	for _, pol := range []Policy{PolicyRandom, PolicyFirstFree, PolicyStaticFirst} {
		a := core.NewHypercubeAdaptive(5)
		src := traffic.NewStaticSource(traffic.Random{Nodes: 32}, 32, 4, 3)
		m := runStaticBuffered(t, a, src, Config{Seed: 31, Policy: pol})
		if m.Delivered != 32*4 {
			t.Errorf("policy %v: delivered %d", pol, m.Delivered)
		}
	}
}

// TestConfigValidation covers the constructor error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := NewEngine(Config{Algorithm: core.NewHypercubeAdaptive(3), QueueCap: -1}); err == nil {
		t.Error("negative queue capacity accepted")
	}
	// Credited moves commit against live occupancy: the buffered engine
	// refuses to shard them, the atomic engine ignores Workers as always.
	shuffle := Config{Algorithm: core.NewShuffleExchangeAdaptive(4), Workers: 4}
	if _, err := NewEngine(shuffle); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("credited algorithm on 4 workers: err = %v, want an error naming Workers", err)
	}
	if _, err := NewAtomicEngine(shuffle); err != nil {
		t.Errorf("atomic engine with Workers set: %v", err)
	}
}

// TestMaxCyclesExceeded checks the safety cap error path (not a deadlock:
// just too little time to drain).
func TestMaxCyclesExceeded(t *testing.T) {
	a := core.NewHypercubeAdaptive(5)
	src := traffic.NewStaticSource(traffic.Random{Nodes: 32}, 32, 10, 3)
	e, err := NewEngine(Config{Algorithm: a, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runStatic(e, src, 3); err == nil {
		t.Error("expected a max-cycles error")
	}
}

// TestMetricsHelpers covers the Metrics accessors.
func TestMetricsHelpers(t *testing.T) {
	m := Metrics{LatencySum: 30, Measured: 4, Attempts: 10, Successes: 9}
	if m.AvgLatency() != 7.5 {
		t.Errorf("AvgLatency = %v", m.AvgLatency())
	}
	if m.InjectionRate() != 0.9 {
		t.Errorf("InjectionRate = %v", m.InjectionRate())
	}
	var zero Metrics
	if zero.AvgLatency() != 0 || zero.InjectionRate() != 0 {
		t.Error("zero metrics should report zero rates")
	}
	if zero.String() == "" || m.String() == "" {
		t.Error("String() empty")
	}
}

// TestPolicyString covers the Stringer.
func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		PolicyRandom: "random", PolicyFirstFree: "first-free",
		PolicyStaticFirst: "static-first", PolicyLastFree: "last-free",
		Policy(9): "policy(9)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}
