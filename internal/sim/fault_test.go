package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// faultyPlan builds the reference fault workload used by the determinism
// tests: a seeded 5% of links dead from the start, one timed link outage,
// and one node that dies and revives mid-run.
func faultyPlan() *fault.Plan {
	p := &fault.Plan{}
	p.FailRandomLinks(0.05, 1, 0, fault.Forever)
	p.FailLink(3, 2, 3, 40)
	p.FailNode(9, 2, 100)
	return p
}

// TestFaultDeterminismAcrossWorkers pins the robustness contract: a
// fault-enabled run — random dead links, a timed link outage, a node
// kill/revive — produces bit-identical Metrics and canonical metric
// snapshots at every worker count.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	type outcome struct {
		m    Metrics
		snap obs.Snapshot
	}
	run := func(workers int, observe bool) outcome {
		a := core.NewHypercubeAdaptive(6)
		nodes := a.Topology().Nodes()
		cfg := Config{Algorithm: a, Seed: 12345, Workers: workers, Faults: faultyPlan()}
		if observe {
			cfg.Observer = obs.NewSampler(25)
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 3, 99)
		res, err := e.Run(context.Background(), src, StaticPlan(1_000_000))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcome{m: res.Metrics, snap: res.Snapshot.Canonical()}
	}

	base := run(1, false)
	want := run(1, true)
	if want.m != base.m {
		t.Fatalf("attaching an observer changed fault-run Metrics:\n with    %+v\n without %+v", want.m, base.m)
	}
	if base.m.Dropped == 0 {
		t.Error("reference fault run dropped nothing; the fixture is not exercising faults")
	}
	if base.m.Injected != base.m.Delivered+base.m.Dropped {
		t.Errorf("conservation violated: injected %d != delivered %d + dropped %d",
			base.m.Injected, base.m.Delivered, base.m.Dropped)
	}
	for _, w := range []int{4, 7} {
		if got := run(w, false); got.m != base.m {
			t.Errorf("workers=%d fault Metrics diverged:\n got  %+v\n want %+v", w, got.m, base.m)
		}
		got := run(w, true)
		if got.m != want.m {
			t.Errorf("workers=%d observed fault Metrics diverged:\n got  %+v\n want %+v", w, got.m, want.m)
		}
		if got.snap != want.snap {
			t.Errorf("workers=%d canonical fault snapshot diverged:\n got  %+v\n want %+v", w, got.snap, want.snap)
		}
	}
}

// TestFaultDegradedDeliveryDim8 is the acceptance fixture from the issue: a
// dim-8 hypercube with a seeded 5% of links dead from cycle 0 must deliver
// every routable packet of a one-per-node static workload — no watchdog
// firing, nothing left in flight, and Injected = Delivered + Dropped exact.
func TestFaultDegradedDeliveryDim8(t *testing.T) {
	plan := &fault.Plan{}
	plan.FailRandomLinks(0.05, 1, 0, fault.Forever)
	for _, engine := range []string{"buffered", "atomic"} {
		a := core.NewHypercubeAdaptive(8)
		nodes := a.Topology().Nodes()
		eng, err := NewSimulator(engine, Config{
			Algorithm: a, Seed: 7, Faults: plan, Observer: &obs.Base{},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 1, 42)
		res, err := eng.Run(context.Background(), src, StaticPlan(1_000_000))
		if err != nil {
			t.Errorf("%s: run failed: %v", engine, err)
			continue
		}
		m := res.Metrics
		if m.Injected != int64(nodes) {
			t.Errorf("%s: injected %d, want %d", engine, m.Injected, nodes)
		}
		if m.InFlight != 0 {
			t.Errorf("%s: %d packets left in flight", engine, m.InFlight)
		}
		if m.Injected != m.Delivered+m.Dropped {
			t.Errorf("%s: conservation violated: injected %d != delivered %d + dropped %d",
				engine, m.Injected, m.Delivered, m.Dropped)
		}
		// No node faults, so every destination is reachable: degraded
		// routing must deliver every single packet.
		if m.Delivered != m.Injected {
			t.Errorf("%s: only %d/%d delivered under 5%% dead links", engine, m.Delivered, m.Injected)
		}
		if res.Snapshot.Gauge(obs.GDeadLinks) == 0 {
			t.Errorf("%s: GDeadLinks gauge is zero with 5%% of links dead", engine)
		}
	}
}

// dumpCatcher records the wait-for dump the watchdog hands to observers
// implementing obs.DeadlockObserver.
type dumpCatcher struct {
	obs.Base
	dump *obs.DeadlockDump
}

func (d *dumpCatcher) OnDeadlock(dump *obs.DeadlockDump) { d.dump = dump }

// TestWatchdogDumpReportsWaits wedges the broken ring and checks both
// engines attach a populated wait-for dump to ErrDeadlock and deliver the
// same dump to a DeadlockObserver.
func TestWatchdogDumpReportsWaits(t *testing.T) {
	ring := newBrokenRing()
	mk := func() TrafficSource {
		sigma := make([]int32, 6)
		for i := range sigma {
			sigma[i] = int32((i + 3) % 6)
		}
		return traffic.NewStaticSource(&traffic.Permutation{Label: "shift3", Sigma: sigma}, 6, 10, 1)
	}
	for _, engine := range []string{"buffered", "atomic"} {
		catcher := &dumpCatcher{}
		eng, err := NewSimulator(engine, Config{
			Algorithm: ring, QueueCap: 1, Observer: catcher,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run(context.Background(), mk(), StaticPlan(1_000_000))
		var dl *ErrDeadlock
		if !errors.As(err, &dl) {
			t.Errorf("%s: expected ErrDeadlock, got %v", engine, err)
			continue
		}
		if dl.Dump == nil {
			t.Errorf("%s: ErrDeadlock carries no dump", engine)
			continue
		}
		if len(dl.Dump.Waits) == 0 {
			t.Errorf("%s: dump has no blocked heads", engine)
			continue
		}
		if dl.Dump.Cycle <= 0 || dl.Dump.InFlight <= 0 {
			t.Errorf("%s: implausible dump header %+v", engine, dl.Dump)
		}
		w := dl.Dump.Waits[0]
		if len(w.WaitsOn) == 0 {
			t.Errorf("%s: blocked head %+v waits on nothing", engine, w)
		}
		if catcher.dump != dl.Dump {
			t.Errorf("%s: observer got dump %p, error carries %p", engine, catcher.dump, dl.Dump)
		}
	}
}

// TestMisrouteAroundDeadLink kills the only minimal link for a single
// packet and checks the engines deliver it anyway by misrouting, counting
// the detour in CMisrouted.
func TestMisrouteAroundDeadLink(t *testing.T) {
	plan := &fault.Plan{}
	plan.FailLink(0, 0, 0, fault.Forever) // node 0 <-> node 1, the 0->1 minimal path
	for _, engine := range []string{"buffered", "atomic"} {
		a := core.NewHypercubeAdaptive(4)
		nodes := a.Topology().Nodes()
		sigma := make([]int32, nodes)
		for i := range sigma {
			sigma[i] = int32(i)
		}
		sigma[0] = 1 // the only traveling packet needs the dead link
		eng, err := NewSimulator(engine, Config{
			Algorithm: a, Seed: 3, Faults: plan, Observer: &obs.Base{},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := traffic.NewStaticSource(&traffic.Permutation{Label: "deadmin", Sigma: sigma}, nodes, 1, 1)
		res, err := eng.Run(context.Background(), src, StaticPlan(100_000))
		if err != nil {
			t.Errorf("%s: %v", engine, err)
			continue
		}
		m := res.Metrics
		if m.Delivered != m.Injected || m.Dropped != 0 {
			t.Errorf("%s: injected %d, delivered %d, dropped %d; want all delivered",
				engine, m.Injected, m.Delivered, m.Dropped)
		}
		if got := res.Snapshot.Counter(obs.CMisrouted); got == 0 {
			t.Errorf("%s: packet crossed a dead minimal cut without misrouting", engine)
		}
	}
}

// TestNodeKillPurgeAndRevive kills a node mid-run and revives it: traffic
// caught inside or routed toward the dead node is dropped with exact
// accounting, the node's own source resumes after revival, and the
// liveness gauges return to zero.
func TestNodeKillPurgeAndRevive(t *testing.T) {
	// Kill early enough that node 7 still has pending injections: the run
	// must then outlive the outage, and the revival event gets applied.
	plan := &fault.Plan{}
	plan.FailNode(7, 2, 200)
	a := core.NewHypercubeAdaptive(5)
	nodes := a.Topology().Nodes()
	e, err := NewEngine(Config{Algorithm: a, Seed: 5, Faults: plan, Observer: &obs.Base{}})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 8, 17)
	res, err := e.Run(context.Background(), src, StaticPlan(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Injected != int64(nodes)*8 {
		t.Errorf("injected %d, want %d: node 7's source did not finish after revival", m.Injected, nodes*8)
	}
	if m.Injected != m.Delivered+m.Dropped || m.InFlight != 0 {
		t.Errorf("conservation violated: %+v", m)
	}
	if m.Dropped == 0 {
		t.Error("killing a node for 200 cycles dropped nothing")
	}
	if got := res.Snapshot.Counter(obs.CFaultDrops); got != m.Dropped {
		t.Errorf("CFaultDrops %d != Metrics.Dropped %d", got, m.Dropped)
	}
	if res.Snapshot.Gauge(obs.GDeadNodes) != 0 || res.Snapshot.Gauge(obs.GDeadLinks) != 0 {
		t.Errorf("liveness gauges nonzero after revival: nodes=%d links=%d",
			res.Snapshot.Gauge(obs.GDeadNodes), res.Snapshot.Gauge(obs.GDeadLinks))
	}
}

// TestFaultInjectionBackoff saturates tiny queues under a fault plan and
// checks the injection retry-with-backoff engages (CInjRetries > 0)
// without losing packets.
func TestFaultInjectionBackoff(t *testing.T) {
	plan := &fault.Plan{}
	plan.FailLink(0, 0, 0, fault.Forever)
	a := core.NewHypercubeAdaptive(4)
	nodes := a.Topology().Nodes()
	e, err := NewEngine(Config{
		Algorithm: a, Seed: 2, QueueCap: 1, Faults: plan, Observer: &obs.Base{},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := traffic.NewStaticSource(traffic.Random{Nodes: nodes}, nodes, 12, 4)
	res, err := e.Run(context.Background(), src, StaticPlan(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Injected != m.Delivered+m.Dropped || m.InFlight != 0 {
		t.Errorf("conservation violated: %+v", m)
	}
	if res.Snapshot.Counter(obs.CInjRetries) == 0 {
		t.Error("saturated queues under faults never engaged injection backoff")
	}
}
