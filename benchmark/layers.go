package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// perLayerMetrics assembles the traced pass's output: figures derived from
// this workload's spans and counters, then the timing loops over each
// layer's public functions, which are the same whatever the workload and
// get whatever is left of the run's seconds.
func perLayerMetrics(sc scale, m *measured, tr *tracer, dir string, left time.Duration) (map[string]float64, error) {
	c := m.counters
	out := map[string]float64{
		"daemon.requests": c.requests, "daemon.executed": c.executed, "daemon.cached": c.hits, "daemon.rejected": c.rejected,
		"store.hit_ratio": 0,
	}
	if c.hits+c.misses > 0 {
		out["store.hit_ratio"] = c.hits / (c.hits + c.misses)
	}

	var tracedWall, untracedWall, allocs, gcs []float64
	var wall, setup time.Duration
	for _, r := range m.rounds {
		if r.traced {
			tracedWall = append(tracedWall, r.wall.Seconds())
		} else {
			untracedWall = append(untracedWall, r.wall.Seconds())
		}
		allocs = append(allocs, float64(r.allocB)/(1<<20))
		gcs = append(gcs, float64(r.gcs))
		wall += r.wall
		for _, o := range r.ops {
			setup += o.setup
		}
	}
	out["proc.alloc_mb"] = median(allocs)
	out["proc.gc_cycles"] = median(gcs)
	out["exec.setup_share"] = setup.Seconds() / wall.Seconds()
	out["trace.overhead_pct"] = 100 * (median(tracedWall) - median(untracedWall)) / median(untracedWall)

	_, rootTotal := tr.selfTimes()
	out["trace.coverage"] = rootTotal.Seconds() / m.tracedWall().Seconds()

	out["sweep.overhead_pct"] = 0
	if run := tr.sum("sweep.run"); run > 0 {
		out["sweep.overhead_pct"] = 100 * (run - tr.sum("sweep.cell")).Seconds() / run.Seconds()
	}

	var errSum float64
	var errN int
	for _, o := range m.rounds[0].ops {
		if o.paperErr >= 0 {
			errSum += o.paperErr
			errN++
		}
	}
	out["bench.paper_lavg_err_pct"] = 0
	if errN > 0 {
		out["bench.paper_lavg_err_pct"] = 100 * errSum / float64(errN)
	}

	budget := left / 40
	if budget < sc.loop/4 {
		budget = sc.loop / 4
	}
	if budget > 2*sc.loop {
		budget = 2 * sc.loop
	}
	l := &loops{sc: sc, dir: dir, budget: budget, out: out}
	for _, step := range []func() error{
		l.calibrate, l.routing, l.graphRouting, l.injection, l.engines, l.parallelEngines,
		l.atomicEngine, l.engineBuild, l.observer, l.specs, l.storeOps, l.scheduling, l.handlers,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loops runs the per-layer timing loops. Every loop calls public functions
// of one internal package from outside, the way the layer above it does.
type loops struct {
	sc     scale
	dir    string
	budget time.Duration
	out    map[string]float64
}

// per calls batch until the loop budget is spent (at least three times) and
// returns the median nanoseconds per unit, where batch reports how many
// units of work it did.
func (l *loops) per(batch func() int) float64 {
	var samples []float64
	deadline := time.Now().Add(l.budget)
	for len(samples) < 3 || (time.Now().Before(deadline) && len(samples) < 4096) {
		t0 := time.Now()
		units := batch()
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return median(samples)
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink uint64

// calibrate times a fixed pure-CPU loop, recorded with every traced run so
// recordings from hosts of different speed can be normalised.
func (l *loops) calibrate() error {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < l.sc.calibIter; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
	l.out["calib.ns_per_iter"] = float64(time.Since(t0).Nanoseconds()) / float64(l.sc.calibIter)
	return nil
}

// routeState is one (queue, packet) state a routing function is asked about.
type routeState struct {
	node  int32
	class core.QueueClass
	work  uint32
	dst   int32
}

// reachableStates walks seeded random packets from injection to delivery,
// choosing a random candidate at every hop, and returns the states visited:
// the states the engines really present to the routing function.
func reachableStates(a core.Algorithm, seed int64, want int) []routeState {
	rng := xrand.New(seed, 0)
	n := a.Topology().Nodes()
	out := make([]routeState, 0, want)
	var buf []core.Move
	for len(out) < want {
		src, dst := int32(rng.Intn(n)), int32(rng.Intn(n))
		if src == dst {
			continue
		}
		node := src
		class, work := a.Inject(src, dst)
		for hop := 0; hop < 8*n && len(out) < want; hop++ {
			out = append(out, routeState{node, class, work, dst})
			buf = a.Candidates(node, class, work, dst, buf[:0])
			mv := buf[rng.Intn(len(buf))]
			if mv.Deliver {
				break
			}
			node, class, work = mv.Node, mv.Class, mv.Work
		}
	}
	return out
}

const routeStates = 4096

func (l *loops) portMask(metric string, a core.Algorithm) error {
	pmr, ok := a.(core.PortMaskRouter)
	if !ok {
		return fmt.Errorf("%s: %s has no PortMask", metric, a.Name())
	}
	states := reachableStates(a, 1, routeStates)
	var pm core.PortMasks
	l.out[metric] = l.per(func() int {
		for _, s := range states {
			if pmr.PortMask(s.node, s.class, s.work, s.dst, &pm) {
				sink += uint64(pm.Dyn)
			}
		}
		return len(states)
	})
	return nil
}

func (l *loops) routing() error {
	cube, err := spec.Algorithm("hypercube-adaptive:10")
	if err != nil {
		return err
	}
	if err := l.portMask("core.portmask_ns", cube); err != nil {
		return err
	}
	torus, err := spec.Algorithm("torus-adaptive:24x24")
	if err != nil {
		return err
	}
	if err := l.portMask("core.perport_portmask_ns", torus); err != nil {
		return err
	}
	shuffle, err := spec.Algorithm("shuffle-adaptive:10")
	if err != nil {
		return err
	}
	states := reachableStates(shuffle, 1, routeStates)
	var buf []core.Move
	l.out["core.candidates_ns"] = l.per(func() int {
		for _, s := range states {
			buf = shuffle.Candidates(s.node, s.class, s.work, s.dst, buf[:0])
			sink += uint64(len(buf))
		}
		return len(states)
	})
	return nil
}

// graphRouting times the graph path's three costs: generating a topology
// with its all-pairs distance table, compiling the route table over it, and
// one table-tier routing decision.
func (l *loops) graphRouting() error {
	small, big := l.sc.layerGraphs[0], l.sc.layerGraphs[1]
	t0 := time.Now()
	g, err := topology.NewRandomRegular(big, graphDegree, 1)
	if err != nil {
		return err
	}
	l.out["topology.generate_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := core.NewGraphAdaptive(g); err != nil {
		return err
	}
	l.out["core.graph_compile_ms"] = ms(time.Since(t0))

	gs, err := topology.NewRandomRegular(small, graphDegree, 1)
	if err != nil {
		return err
	}
	a, err := core.NewGraphAdaptive(gs)
	if err != nil {
		return err
	}
	return l.portMask("core.graph_portmask_ns", a)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// injection times the traffic sources at 4096 nodes: the batched FillCycle
// of each model per attempted injection, with an empty and a 90%-occupied
// injection bitmap for Bernoulli, and the scalar Wants/Take pair that fault
// runs fall back to.
func (l *loops) injection() error {
	const nodes = 4096
	pat := traffic.Random{Nodes: nodes}
	empty := make([]uint64, nodes/64)
	busy := make([]uint64, nodes/64)
	rng := xrand.New(1, 0)
	for u := 0; u < nodes; u++ {
		if rng.Intn(10) != 0 {
			busy[u>>6] |= 1 << (uint(u) & 63)
		}
	}
	out := make([]core.PendingInject, nodes)
	fill := func(metric string, src sim.TrafficSource, full []uint64) error {
		bs, ok := src.(sim.BatchSource)
		if !ok {
			return fmt.Errorf("%s: source has no FillCycle", metric)
		}
		cycle := int64(0)
		l.out[metric] = l.per(func() int {
			attempts := 0
			for i := 0; i < 8; i++ {
				n, blocked := bs.FillCycle(cycle, 0, nodes, full, out)
				attempts += n + blocked
				cycle++
			}
			return max(attempts, 1)
		})
		return nil
	}
	if err := fill("traffic.bernoulli_fill_ns", traffic.NewBernoulliSource(pat, nodes, 1, 3), empty); err != nil {
		return err
	}
	if err := fill("traffic.bernoulli_fill_blocked_ns", traffic.NewBernoulliSource(pat, nodes, 1, 3), busy); err != nil {
		return err
	}
	for _, model := range []string{"mmpp", "onoff"} {
		ts, err := spec.ParseTraffic(model)
		if err != nil {
			return err
		}
		src, err := ts.Build(pat, nodes, 0.5, 3)
		if err != nil {
			return err
		}
		if err := fill("traffic."+model+"_fill_ns", src, empty); err != nil {
			return err
		}
	}
	scalar := traffic.NewBernoulliSource(pat, nodes, 0.5, 3)
	cycle := int64(0)
	l.out["traffic.scalar_wants_take_ns"] = l.per(func() int {
		for u := int32(0); u < nodes; u++ {
			if scalar.Wants(u, cycle) {
				sink += uint64(scalar.Take(u, cycle))
			}
		}
		cycle++
		return nodes
	})
	return nil
}

// engineRun is one engine run's outcome with its phase split.
type engineRun struct {
	pt    sim.PhaseTimes
	m     sim.Metrics
	wall  time.Duration
	nodes int
}

// runEngine builds an engine from an algorithm spec and a sim.Config the
// way exec does, and runs it over `cycles` cycles of random traffic at rate
// lambda (static: packets per node, drained).
func runEngine(kind, algoSpec string, cfg sim.Config, lambda float64, packets int, cycles int64) (engineRun, error) {
	a, err := spec.Algorithm(algoSpec)
	if err != nil {
		return engineRun{}, err
	}
	cfg.Algorithm = a
	cfg.Seed = 1
	eng, err := sim.NewSimulator(kind, cfg)
	if err != nil {
		return engineRun{}, err
	}
	nodes := a.Topology().Nodes()
	pat := traffic.Random{Nodes: nodes}
	var src sim.TrafficSource = traffic.NewBernoulliSource(pat, nodes, lambda, 3)
	plan := sim.DynamicPlan(cycles/4, cycles-cycles/4)
	if packets > 0 {
		src, plan = traffic.NewStaticSource(pat, nodes, packets, 3), sim.StaticPlan(1_000_000)
	}
	t0 := time.Now()
	res, err := eng.Run(context.Background(), src, plan)
	if err != nil {
		return engineRun{}, err
	}
	return engineRun{pt: eng.PhaseTimes(), m: res.Metrics, wall: time.Since(t0), nodes: nodes}, nil
}

// phaseSplit writes the six per-phase metrics under prefix from runs made
// with Config.PhaseProf.
func (l *loops) phaseSplit(prefix string, runs ...engineRun) (total sim.PhaseTimes) {
	var moves, nodeCycles float64
	for _, r := range runs {
		total.InjectNs += r.pt.InjectNs
		total.PhaseANs += r.pt.PhaseANs
		total.PhaseBNs += r.pt.PhaseBNs
		total.LinkNs += r.pt.LinkNs
		total.MergeNs += r.pt.MergeNs
		total.OtherNs += r.pt.OtherNs
		total.Cycles += r.pt.Cycles
		moves += float64(r.m.Moves)
		nodeCycles += float64(r.nodes) * float64(r.pt.Cycles)
	}
	l.out[prefix+"inject_ns_per_node_cycle"] = float64(total.InjectNs) / nodeCycles
	l.out[prefix+"phase_a_ns_per_move"] = float64(total.PhaseANs) / moves
	l.out[prefix+"phase_b_ns_per_move"] = float64(total.PhaseBNs) / moves
	l.out[prefix+"link_ns_per_move"] = float64(total.LinkNs) / moves
	l.out[prefix+"merge_ns_per_cycle"] = float64(total.MergeNs) / float64(total.Cycles)
	l.out[prefix+"other_ns_per_cycle"] = float64(total.OtherNs) / float64(total.Cycles)
	return total
}

func (l *loops) simDims() (small, large, parallel string) {
	d := l.sc.layerDims
	cube := func(n int) string { return fmt.Sprintf("hypercube-adaptive:%d", n) }
	return cube(d[0]), cube(d[1]), cube(d[2])
}

// engines: the buffered engine with one worker at saturation, split by
// phase, and the static drain.
func (l *loops) engines() error {
	small, large, _ := l.simDims()
	var runs []engineRun
	var ns, moves float64
	for _, algo := range []string{small, large} {
		r, err := runEngine("buffered", algo, sim.Config{PhaseProf: true}, 1, 0, l.sc.simCycles)
		if err != nil {
			return err
		}
		runs = append(runs, r)
		ns += float64(r.pt.TotalNs())
		moves += float64(r.m.Moves)
	}
	l.phaseSplit("sim.", runs...)
	l.out["sim.buffered_ns_per_move"] = ns / moves

	r, err := runEngine("buffered", small, sim.Config{}, 0, 10, 0)
	if err != nil {
		return err
	}
	l.out["sim.static_drain_ns_per_move"] = float64(r.wall.Nanoseconds()) / float64(r.m.Moves)
	return nil
}

// parallelEngines: the same split at Workers 2, what share of the cycle is
// sequential, and the speedup on cube_parallel's own cell.
func (l *loops) parallelEngines() error {
	small, large, parallel := l.simDims()
	var runs []engineRun
	for _, algo := range []string{small, large} {
		r, err := runEngine("buffered", algo, sim.Config{PhaseProf: true, Workers: 2}, 1, 0, l.sc.simCycles)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	total := l.phaseSplit("sim.w2.", runs...)
	l.out["sim.w2_seq_share"] = float64(total.MergeNs+total.OtherNs) / float64(total.TotalNs())

	// Long enough to get past the first hundred cycles, where the network is
	// still filling and a cycle is mostly barrier.
	cycles := l.sc.simCycles * 3 / 2
	w1, err := runEngine("buffered", parallel, sim.Config{}, 1, 0, cycles)
	if err != nil {
		return err
	}
	w2, err := runEngine("buffered", parallel, sim.Config{Workers: 2}, 1, 0, cycles)
	if err != nil {
		return err
	}
	l.out["sim.w2_speedup"] = w1.wall.Seconds() / w2.wall.Seconds()
	return nil
}

func (l *loops) atomicEngine() error {
	small, _, _ := l.simDims()
	r, err := runEngine("atomic", small, sim.Config{}, 1, 0, 4*l.sc.simCycles)
	if err != nil {
		return err
	}
	l.out["sim.atomic_ns_per_move"] = float64(r.wall.Nanoseconds()) / float64(r.m.Moves)
	l.out["sim.atomic_ns_per_node_cycle"] = float64(r.wall.Nanoseconds()) / (float64(r.nodes) * float64(r.m.Cycles))
	return nil
}

// engineBuild: constructing the largest engine any workload builds, and
// whether a steady-state cycle allocates.
func (l *loops) engineBuild() error {
	small, _, parallel := l.simDims()
	a, err := spec.Algorithm(parallel)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := sim.NewSimulator("buffered", sim.Config{Algorithm: a, Seed: 1}); err != nil {
		return err
	}
	l.out["sim.new_engine_ms"] = ms(time.Since(t0))

	a, err = spec.Algorithm(small)
	if err != nil {
		return err
	}
	eng, err := sim.NewSimulator("buffered", sim.Config{Algorithm: a, Seed: 1})
	if err != nil {
		return err
	}
	nodes := a.Topology().Nodes()
	cycles := l.sc.simCycles
	eng.Start(traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 1, 3), sim.DynamicPlan(1, 3*cycles))
	step := func(n int64) error {
		for i := int64(0); i < n; i++ {
			if done, err := eng.Step(); done || err != nil {
				return fmt.Errorf("sim.allocs_per_cycle: run ended early: %v", err)
			}
		}
		return nil
	}
	if err := step(cycles); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := step(cycles); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	l.out["sim.allocs_per_cycle"] = float64(m1.Mallocs-m0.Mallocs) / float64(cycles)
	return nil
}

// observer: what switching the metrics core on costs a run below saturation.
func (l *loops) observer() error {
	small, _, _ := l.simDims()
	var off, on []float64
	for i := 0; i < 3; i++ {
		for _, metrics := range []bool{false, true} {
			r, err := runEngine("buffered", small, sim.Config{Metrics: metrics}, 0.5, 0, l.sc.simCycles)
			if err != nil {
				return err
			}
			if metrics {
				on = append(on, r.wall.Seconds())
			} else {
				off = append(off, r.wall.Seconds())
			}
		}
	}
	l.out["obs.metrics_overhead_pct"] = 100 * (median(on) - median(off)) / median(off)
	return nil
}

func (l *loops) graphSpec() exec.RunSpec {
	return exec.RunSpec{
		Algo:     "graph-adaptive",
		Topology: graphTopology(l.sc.graphNodes, 1),
		Inject:   "dynamic", Lambda: 0.05, Warmup: 100, Measure: 200, Seed: 1,
	}
}

// specs: what exec and spec do to a RunSpec before and after the engine runs.
func (l *loops) specs() error {
	small, _, _ := l.simDims()
	s := exec.RunSpec{Algo: small, Seed: 1, Packets: 4}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	l.out["exec.validate_us"] = l.per(func() int { note(s.Validate()); return 1 }) / 1e3
	l.out["exec.fingerprint_us"] = l.per(func() int { sink += uint64(len(s.Fingerprint("bench"))); return 1 }) / 1e3
	g := l.graphSpec()
	l.out["exec.validate_graph_ms"] = l.per(func() int { note(g.Validate()); return 1 }) / 1e6
	l.out["exec.build_ms"] = l.per(func() int { _, err := s.Build(); note(err); return 1 }) / 1e6
	l.out["exec.source_ms"] = l.per(func() int { _, _, err := s.Source(); note(err); return 1 }) / 1e6
	if firstErr != nil {
		return firstErr
	}
	res, err := exec.Run(context.Background(), s, nil)
	if err != nil {
		return err
	}
	l.out["exec.result_json_us"] = l.per(func() int {
		blob, err := json.Marshal(res)
		note(err)
		var back exec.Result
		note(json.Unmarshal(blob, &back))
		return 1
	}) / 1e3
	return firstErr
}

// storeOps: the file-backed store's calls, and reopening a journal.
func (l *loops) storeOps() error {
	path := filepath.Join(l.dir, "layer-store.jsonl")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	blob := bytes.Repeat([]byte(`{"k":"0123456789abcdef"},`), 20)
	blob = append([]byte("["), append(blob, []byte("0]")...)...) // valid JSON of a result's size
	var firstErr error
	i := 0
	l.out["store.put_us"] = l.per(func() int {
		if err := st.Put(fmt.Sprintf("put-%06d", i), blob); err != nil && firstErr == nil {
			firstErr = err
		}
		i++
		return 1
	}) / 1e3
	if firstErr != nil {
		return firstErr
	}
	l.out["store.get_hit_us"] = l.per(func() int {
		for k := 0; k < 64; k++ {
			if b, ok := st.Get("put-000000"); ok {
				sink += uint64(len(b))
			}
		}
		return 64
	}) / 1e3
	l.out["store.get_miss_us"] = l.per(func() int {
		for k := 0; k < 64; k++ {
			if _, ok := st.Get("absent"); ok {
				sink++
			}
		}
		return 64
	}) / 1e3

	// The journal is written in the store's documented line format rather
	// than through Put, which syncs every line; a format change shows as a
	// short replay below.
	replay := filepath.Join(l.dir, "layer-replay.jsonl")
	var buf bytes.Buffer
	for k := 0; k < l.sc.replayN; k++ {
		fmt.Fprintf(&buf, `{"v":1,"key":"replay-%06d","blob":%s}`+"\n", k, blob)
	}
	if err := os.WriteFile(replay, buf.Bytes(), 0o644); err != nil {
		return err
	}
	t0 := time.Now()
	rs, err := store.Open(replay, store.Options{})
	if err != nil {
		return err
	}
	l.out["store.open_replay_ms"] = ms(time.Since(t0))
	defer rs.Close()
	if rs.Len() != l.sc.replayN {
		return fmt.Errorf("store.open_replay_ms: replayed %d of %d entries", rs.Len(), l.sc.replayN)
	}
	return nil
}

// scheduling: building the paper suite's job list, and the scheduler's
// hand-off from TrySubmit to the task starting.
func (l *loops) scheduling() error {
	var firstErr error
	l.out["sweep.buildjobs_ms"] = l.per(func() int {
		if _, err := sweep.BuildJobs(sweep.SuitePaper, "", 0, bench.Options{}); err != nil && firstErr == nil {
			firstErr = err
		}
		return 1
	}) / 1e6
	sched := sweep.NewScheduler(1, 1, 16)
	defer sched.Close()
	l.out["sweep.sched_dispatch_us"] = l.per(func() int {
		started := make(chan time.Time, 1) // one send per task
		t0 := time.Now()
		if err := sched.TrySubmit(sweep.Task{Run: func(int) { started <- time.Now() }}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return 1
		}
		sink += uint64((<-started).Sub(t0))
		return 1
	}) / 1e3
	return firstErr
}

// handlers: the daemon's handler without a socket, the loopback cost on top
// of it, and what a cold request costs beyond the run itself.
func (l *loops) handlers() error {
	env, err := newDaemonEnv(filepath.Join(l.dir, "layer-daemon.jsonl"))
	if err != nil {
		return err
	}
	defer env.close()
	small, _, _ := l.simDims()
	mk := func(cell string, s exec.RunSpec) (daemonSpec, error) {
		body, err := json.Marshal(s)
		return daemonSpec{cell: cell, spec: s, body: body}, err
	}
	regular, err := mk("layer/regular", exec.RunSpec{Algo: small, Seed: 1, Packets: 4})
	if err != nil {
		return err
	}
	graph, err := mk("layer/graph", l.graphSpec())
	if err != nil {
		return err
	}

	// Cold: the request's latency against a direct exec.Run of the same spec.
	var overhead []float64
	for i := int64(0); i < 5; i++ {
		s := regular.spec
		s.Seed = 100 + i
		d, err := mk("layer/cold", s)
		if err != nil {
			return err
		}
		o := env.post(nil, d, false)
		if o.fail != "" {
			return fmt.Errorf("daemon.cold_overhead_ms: %s", o.fail)
		}
		t0 := time.Now()
		if _, err := exec.Run(context.Background(), s, nil); err != nil {
			return err
		}
		overhead = append(overhead, ms(o.wall-time.Since(t0)))
	}
	l.out["daemon.cold_overhead_ms"] = median(overhead)

	for _, d := range []daemonSpec{regular, graph} {
		if o := env.post(nil, d, false); o.fail != "" {
			return fmt.Errorf("daemon handlers: priming: %s", o.fail)
		}
	}
	h := env.srv.Handler()
	var firstErr error
	serve := func(d daemonSpec) func() int {
		return func() int {
			req := httptest.NewRequest(http.MethodPost, "/v1/sim", bytes.NewReader(d.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && firstErr == nil {
				firstErr = fmt.Errorf("daemon handler: HTTP %d", rec.Code)
			}
			return 1
		}
	}
	handlerNs := l.per(serve(regular))
	l.out["daemon.handler_warm_us"] = handlerNs / 1e3
	l.out["daemon.handler_warm_graph_ms"] = l.per(serve(graph)) / 1e6
	loopNs := l.per(func() int {
		if o := env.post(nil, regular, true); o.fail != "" && firstErr == nil {
			firstErr = fmt.Errorf("daemon loopback: %s", o.fail)
		}
		return 1
	})
	l.out["daemon.http_overhead_us"] = (loopNs - handlerNs) / 1e3
	return firstErr
}
