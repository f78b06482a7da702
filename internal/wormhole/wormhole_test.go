package wormhole

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

func routesUnderTest() []Route {
	return []Route{
		NewHypercubeECube(5),
		NewHypercubeAdaptive(5),
		NewTorusDOR(5),
		NewTorusDOR(6),
		NewTorusAdaptive(5),
		NewTorusAdaptive(6),
		NewTorusDORShape(4, 5, 3),
		NewTorusAdaptiveShape(4, 5, 3),
		NewHypercubeNonMinimal(5, 2),
	}
}

// TestDrainAllRoutes floods every route with static random traffic and
// requires full delivery — the engine asserts the minimal hop count of each
// worm on the way.
func TestDrainAllRoutes(t *testing.T) {
	for _, r := range routesUnderTest() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			nodes := r.Topology().Nodes()
			for _, flits := range []int{1, 4, 16} {
				e, err := NewEngine(Config{Route: r, Flits: flits, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 4, 3)
				m, err := e.RunStatic(src, 1_000_000)
				if err != nil {
					t.Fatalf("flits=%d: %v", flits, err)
				}
				if m.Delivered != int64(nodes*4) {
					t.Fatalf("flits=%d: delivered %d, want %d", flits, m.Delivered, nodes*4)
				}
				if m.InFlight != 0 {
					t.Fatalf("flits=%d: %d worms left in flight", flits, m.InFlight)
				}
			}
		})
	}
}

// TestNoDeadlockUnderPressure runs the adversarial regime: long worms, tiny
// VC buffers, permutation traffic that saturates rings and dimensions.
func TestNoDeadlockUnderPressure(t *testing.T) {
	cases := []struct {
		route Route
		pat   traffic.Pattern
	}{
		{NewHypercubeAdaptive(6), traffic.Complement{Bits: 6}},
		{NewHypercubeECube(6), traffic.Complement{Bits: 6}},
		{NewTorusDOR(6), traffic.MeshTranspose{Side: 6}},
		{NewTorusAdaptive(6), traffic.MeshTranspose{Side: 6}},
		{NewTorusAdaptive(8), traffic.Random{Nodes: 64}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.route.Name()+"/"+c.pat.Name(), func(t *testing.T) {
			nodes := c.route.Topology().Nodes()
			e, err := NewEngine(Config{Route: c.route, Flits: 12, VCBuf: 1, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			src := traffic.NewStaticSource(c.pat, nodes, 6, 3)
			m, err := e.RunStatic(src, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if m.Delivered != int64(nodes*6) {
				t.Fatalf("delivered %d, want %d", m.Delivered, nodes*6)
			}
		})
	}
}

// TestLatencyUncongested pins the timing: the header crosses one link per
// cycle and reaches a distance-d destination on cycle d-1 (counting from
// injection at cycle 0); the i-th flit is ejected on cycle d-1+i, so the
// full worm latency is d + F - 1 inclusive.
func TestLatencyUncongested(t *testing.T) {
	r := NewHypercubeECube(4)
	for _, flits := range []int{1, 4, 8} {
		e, err := NewEngine(Config{Route: r, Flits: flits, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// One worm from 0 to 15: distance 4.
		src := &singleSource{dst: 15}
		m, err := e.RunStatic(src, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if m.Delivered != 1 {
			t.Fatalf("delivered %d", m.Delivered)
		}
		want := int64(4 + flits - 1)
		if m.LatencyMax != want {
			t.Errorf("flits=%d: latency = %d, want %d", flits, m.LatencyMax, want)
		}
	}
}

// singleSource injects exactly one worm from node 0.
type singleSource struct {
	dst  int32
	done bool
}

func (s *singleSource) Wants(node int32, _ int64) bool { return node == 0 && !s.done }
func (s *singleSource) Take(node int32, _ int64) int32 { s.done = true; return s.dst }
func (s *singleSource) Exhausted(node int32) bool      { return node != 0 || s.done }

// TestDeterminism: fixed seeds reproduce bit-identical metrics.
// TestDestinationOutOfRange: a source drawing destinations for a larger
// network (the routesim wh-torus-dor:8x8 defect) must surface as an error,
// not as a "no candidates" panic deep in the header allocation.
func TestDestinationOutOfRange(t *testing.T) {
	for _, dst := range []int32{-1, 64, 4095} {
		e, err := NewEngine(Config{Route: NewTorusDOR(8), Flits: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.RunStatic(&singleSource{dst: dst}, 1000)
		if err == nil || !strings.Contains(err.Error(), "outside [0, 64)") {
			t.Errorf("destination %d: err = %v, want an out-of-range error", dst, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) Metrics {
		r := NewTorusAdaptive(6)
		e, err := NewEngine(Config{Route: r, Flits: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewBernoulliSource(traffic.Random{Nodes: 36}, 36, 0.4, seed)
		m, err := e.RunDynamic(src, 100, 400)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := run(3), run(3); a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a, b := run(3), run(4); a == b {
		t.Error("different seeds produced identical metrics (suspicious)")
	}
}

// TestAdaptiveUsesAdaptiveChannels: under a congesting permutation the
// adaptive scheme must actually exercise its adaptive VCs, and the escape
// network must also see use.
func TestAdaptiveUsesAdaptiveChannels(t *testing.T) {
	r := NewHypercubeAdaptive(6)
	e, err := NewEngine(Config{Route: r, Flits: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewStaticSource(traffic.Complement{Bits: 6}, 64, 6, 3)
	m, err := e.RunStatic(src, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.AdaptAlloc == 0 {
		t.Error("no adaptive channel allocations under complement load")
	}
	if m.EscapeAlloc == 0 {
		t.Error("escape channels never used; the fallback path is dead code")
	}
}

// TestAdaptiveBeatsObliviousOnTranspose: the headline wormhole comparison.
// (Complement is dimension-order's best case — its e-cube streams never
// collide — so the adversarial pattern here is transpose, which funnels
// e-cube traffic through shared intermediate subcubes.)
func TestAdaptiveBeatsObliviousOnTranspose(t *testing.T) {
	run := func(r Route) Metrics {
		e, err := NewEngine(Config{Route: r, Flits: 8, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Transpose{Bits: 8}, 256, 8, 3)
		m, err := e.RunStatic(src, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ad := run(NewHypercubeAdaptive(8))
	ob := run(NewHypercubeECube(8))
	if ad.Cycles >= ob.Cycles {
		t.Errorf("adaptive drained in %d cycles, oblivious in %d; expected a win", ad.Cycles, ob.Cycles)
	}
}

// TestWatchdog: a deliberately cyclic route (ring with one VC and no
// dateline) must be caught by the deadlock watchdog.
type brokenRing struct{ torus *topology.Torus }

func (b *brokenRing) Name() string                 { return "wh-broken-ring" }
func (b *brokenRing) Topology() topology.Topology  { return b.torus }
func (b *brokenRing) NumVCs() int                  { return 1 }
func (b *brokenRing) Inject(src, dst int32) uint32 { return 0 }
func (b *brokenRing) Minimal() bool                { return false }
func (b *brokenRing) MaxHops(src, dst int32) int   { return b.torus.Nodes() }

func (b *brokenRing) Candidates(node int32, state uint32, dst int32, buf []Hop) []Hop {
	return append(buf, Hop{Port: 0, VC: 0, Escape: true}) // always +x, no dateline
}

func TestWatchdog(t *testing.T) {
	ring := &brokenRing{torus: topology.NewTorus(8)}
	e, err := NewEngine(Config{Route: ring, Flits: 8, VCBuf: 1, Seed: 1, DeadlockWindow: 300})
	if err != nil {
		t.Fatal(err)
	}
	sigma := make([]int32, 8)
	for i := range sigma {
		sigma[i] = int32((i + 4) % 8)
	}
	src := traffic.NewStaticSource(&traffic.Permutation{Label: "shift4", Sigma: sigma}, 8, 4, 1)
	var dl *ErrDeadlock
	if _, err := e.RunStatic(src, 1_000_000); !errors.As(err, &dl) {
		t.Errorf("expected ErrDeadlock, got %v", err)
	}
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("nil route accepted")
	}
	if _, err := NewEngine(Config{Route: NewTorusDOR(4), Flits: -1}); err == nil {
		t.Error("negative flit count accepted")
	}
	if _, err := NewEngine(Config{Route: NewTorusDOR(4), VCBuf: -1}); err == nil {
		t.Error("negative VC buffer accepted")
	}
}

// TestMetricsHelpers covers the accessors.
func TestMetricsHelpers(t *testing.T) {
	m := Metrics{Delivered: 4, LatencySum: 48, HeaderSum: 20, Attempts: 10, Successes: 5}
	if m.AvgLatency() != 12 || m.AvgHeaderLatency() != 5 || m.InjectionRate() != 0.5 {
		t.Errorf("metrics accessors wrong: %+v", m)
	}
	var zero Metrics
	if zero.AvgLatency() != 0 || zero.AvgHeaderLatency() != 0 || zero.InjectionRate() != 0 {
		t.Error("zero metrics should report zeros")
	}
}
