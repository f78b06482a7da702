package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// probe is a test Observer assembled from optional funcs.
type probe struct {
	obs.Base
	deliver func(core.Packet, int64)
	cycle   func(int64)
	done    func()
}

func (p *probe) OnDeliver(pkt core.Packet, lat int64) {
	if p.deliver != nil {
		p.deliver(pkt, lat)
	}
}

func (p *probe) OnCycle(cycle int64, _ *obs.Snapshot) {
	if p.cycle != nil {
		p.cycle(cycle)
	}
}

func (p *probe) OnDone(*obs.Snapshot) {
	if p.done != nil {
		p.done()
	}
}

// TestDriverContract runs both engines through the kernel's one driver for
// the behaviours every Simulator promises around the cycle body.
func TestDriverContract(t *testing.T) {
	cube := core.NewHypercubeAdaptive(5)
	nodes := cube.Topology().Nodes()
	dynamic := func() TrafficSource {
		return traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.5, 3)
	}
	static := func() TrafficSource {
		return traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 2, 3)
	}
	build := func(t *testing.T, kind string, cfg Config) Simulator {
		t.Helper()
		if cfg.Algorithm == nil {
			cfg.Algorithm = cube
		}
		e, err := NewSimulator(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, kind := range EngineKinds {
		kind := kind
		t.Run(kind+"/cancel-mid-run", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			dones := 0
			e := build(t, kind, Config{Seed: 7, Workers: 2, Observer: &probe{
				cycle: func(c int64) {
					if c == 30 {
						cancel()
					}
				},
				done: func() { dones++ },
			}})
			res, err := e.Run(ctx, dynamic(), DynamicPlan(1000, 1000))
			if !errors.Is(err, context.Canceled) || !res.Canceled {
				t.Fatalf("err=%v canceled=%v, want context.Canceled and true", err, res.Canceled)
			}
			if res.Metrics.Cycles != 31 || res.Metrics.Injected == 0 || res.Metrics != e.Metrics() {
				t.Errorf("partial result %+v, live metrics %+v", res.Metrics, e.Metrics())
			}
			if !res.Observed || res.Snapshot.Counter(obs.CInjected) != res.Metrics.Injected {
				t.Errorf("partial snapshot injected=%d, metrics=%d",
					res.Snapshot.Counter(obs.CInjected), res.Metrics.Injected)
			}
			if dones != 1 {
				t.Errorf("OnDone fired %d times, want 1", dones)
			}
		})
		t.Run(kind+"/max-cycles", func(t *testing.T) {
			e := build(t, kind, Config{Seed: 1})
			_, err := e.Run(context.Background(), static(), StaticPlan(3))
			var dl *ErrDeadlock
			if err == nil || errors.As(err, &dl) || !strings.Contains(err.Error(), "exceeded 3 cycles") {
				t.Fatalf("err = %v, want the cycle-budget error", err)
			}
		})
		t.Run(kind+"/step-after-done", func(t *testing.T) {
			dones := 0
			e := build(t, kind, Config{Seed: 1, Observer: &probe{done: func() { dones++ }}})
			e.Start(static(), StaticPlan(0))
			for {
				if done, err := e.Step(); done {
					if err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			want, _ := e.Result()
			if want.Metrics.Delivered != int64(2*nodes) || e.State().Packets() != 0 {
				t.Fatalf("drained run delivered %d of %d, %d left in network",
					want.Metrics.Delivered, 2*nodes, e.State().Packets())
			}
			done, err := e.Step()
			got, rerr := e.Result()
			if !done || err != nil || rerr != nil || got != want || dones != 1 {
				t.Errorf("Step after done: done=%v err=%v/%v same=%v OnDone×%d", done, err, rerr, got == want, dones)
			}
		})
		t.Run(kind+"/step-before-start", func(t *testing.T) {
			e := build(t, kind, Config{Seed: 1})
			defer func() {
				if recover() == nil {
					t.Error("Step before Start did not panic")
				}
			}()
			e.Step()
		})
		t.Run(kind+"/observer-panic", func(t *testing.T) {
			// OnCycle runs on the coordinator between phases, so the panic
			// unwinds through Run while the pool (Workers 2) is parked.
			armed := true
			e := build(t, kind, Config{Seed: 1, Workers: 2, Observer: &probe{cycle: func(c int64) {
				if c == 5 && armed {
					armed = false
					panic("observer boom")
				}
			}}})
			func() {
				defer func() {
					if recover() == nil {
						t.Error("observer panic was swallowed")
					}
				}()
				e.Run(context.Background(), dynamic(), DynamicPlan(10, 10))
			}()
			if e, ok := e.(*Engine); ok && e.pool.fn != nil {
				t.Error("pool still holds a phase closure")
			}
			if k := kernelOf(e); k.rs.src != nil || k.rs.batch != nil || k.rs.body != nil {
				t.Error("traffic source or cycle body retained after the panic")
			}
			// The engine must be reusable afterwards.
			if _, err := e.Run(context.Background(), static(), StaticPlan(0)); err != nil {
				t.Errorf("run after panic: %v", err)
			}
		})
		t.Run(kind+"/watchdog", func(t *testing.T) {
			sigma := []int32{3, 4, 5, 0, 1, 2}
			src := traffic.NewStaticSource(&traffic.Permutation{Label: "shift3", Sigma: sigma}, 6, 10, 1)
			catcher := &dumpCatcher{}
			e := build(t, kind, Config{
				Algorithm: newBrokenRing(), QueueCap: 1,
				Observer: catcher,
			})
			_, err := e.Run(context.Background(), src, StaticPlan(1_000_000))
			var dl *ErrDeadlock
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want ErrDeadlock", err)
			}
			if dl.Dump == nil || dl.Dump.InFlight != int64(dl.InFlight) || catcher.dump != dl.Dump {
				t.Errorf("dump %+v (observer saw %p)", dl.Dump, catcher.dump)
			}
		})
		t.Run(kind+"/phaseprof", func(t *testing.T) {
			e := build(t, kind, Config{Seed: 1, PhaseProf: true})
			if _, err := e.Run(context.Background(), dynamic(), DynamicPlan(20, 40)); err != nil {
				t.Fatal(err)
			}
			pt, m := e.PhaseTimes(), e.Metrics()
			if pt.Cycles != m.Cycles || m.Cycles != 60 || pt.TotalNs() <= 0 || pt.InjectNs <= 0 || pt.PhaseANs <= 0 {
				t.Errorf("phase times %+v over %d cycles", pt, m.Cycles)
			}
			if (pt.LinkNs > 0) != (kind == "buffered") {
				t.Errorf("%s LinkNs = %d", kind, pt.LinkNs)
			}
		})
	}
}

// TestPoolReapedWithEngine: an unreachable engine must let go of its pool
// workers. The engine points to itself through kernel.model; this pins that
// the self-reference does not keep the finalizer from running.
func TestPoolReapedWithEngine(t *testing.T) {
	a := core.NewHypercubeAdaptive(4)
	pool := func() *phasePool {
		e, err := NewEngine(Config{Algorithm: a, Seed: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Random{Nodes: 16}, 16, 1, 1)
		if _, err := e.Run(context.Background(), src, StaticPlan(0)); err != nil {
			t.Fatal(err)
		}
		return e.pool
	}()
	for deadline := time.Now().Add(5 * time.Second); !pool.stopping.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("pool still running after its engine became unreachable")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestPooledEngineFreedInOneGC: a dropped multi-worker engine is garbage
// after one collection. The pool's finalizer sits on a small handle, not
// on the engine, so it does not keep the engine's tables alive for a
// second cycle.
func TestPooledEngineFreedInOneGC(t *testing.T) {
	a := core.NewHypercubeAdaptive(12)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	runPooledEngine(t, a)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("heap holds %.2f MB more after one GC than before the build: the dropped engine survived the collection", float64(grew)/(1<<20))
	}
}

//go:noinline
func runPooledEngine(t *testing.T, a core.Algorithm) {
	e, err := NewEngine(Config{Algorithm: a, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodes := a.Topology().Nodes()
	src := traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 0.1, 2)
	if _, err := e.Run(context.Background(), src, DynamicPlan(10, 20)); err != nil {
		t.Fatal(err)
	}
}

// TestPooledEngineCountsParks: under PhaseProf, a cycle that finds the pool
// workers parked reports their slow-path waits in PhaseTimes.Parks, and
// without PhaseProf the count stays zero like every other field.
func TestPooledEngineCountsParks(t *testing.T) {
	a := core.NewHypercubeAdaptive(8)
	for _, prof := range []bool{true, false} {
		e, err := NewEngine(Config{Algorithm: a, Seed: 1, Workers: 2, PhaseProf: prof})
		if err != nil {
			t.Fatal(err)
		}
		e.Start(traffic.NewBernoulliSource(traffic.Random{Nodes: 256}, 256, 0.1, 2), DynamicPlan(0, 10))
		for i := 0; i < 3; i++ {
			// Idle far longer than the spin and yield budgets, so the
			// workers park before the next cycle releases them.
			time.Sleep(5 * time.Millisecond)
			if done, err := e.Step(); done || err != nil {
				t.Fatalf("step %d: done %v err %v", i, done, err)
			}
		}
		if parks := e.PhaseTimes().Parks; (parks > 0) != prof {
			t.Errorf("PhaseProf %v: %d parks over 3 cycles after idle gaps", prof, parks)
		}
		for done := false; !done; {
			done, _ = e.Step()
		}
	}
}
