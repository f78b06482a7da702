// Command routesim runs a single packet-routing simulation with full control
// over the algorithm, traffic and node parameters, and prints the measured
// metrics. It is the general-purpose driver behind the paper's experiments.
//
// The flags of a packet run are compiled into an exec.RunSpec, so a run here
// is the run the tables sweep and the routesimd daemon execute for the same
// values; the printed fingerprint is that spec's result-store key.
//
// Examples:
//
//	routesim -algo hypercube-adaptive:10 -pattern random -inject dynamic -lambda 1
//	routesim -algo hypercube-adaptive:10 -inject dynamic -lambda 1 -engine buffered:vct
//	routesim -algo mesh-adaptive:16x16 -pattern mesh-transpose -inject static -packets 8
//	routesim -algo shuffle-adaptive:10 -pattern random -inject static -packets 4 -engine atomic
//	routesim -algo torus-adaptive:8x8 -pattern random -inject dynamic -lambda 0.4
//	routesim -algo hypercube-adaptive:8 -inject dynamic -traffic mmpp:on=0.9,off=0.05
//	routesim -algo hypercube-adaptive:6 -inject dynamic -record run.jsonl
//	routesim -algo hypercube-adaptive:6 -inject dynamic -traffic trace:run.jsonl
//	routesim -algo hypercube-adaptive:10 -inject dynamic -workers 2 -phaseprof
//	routesim -algo hypercube-adaptive:6 -advsearch -lambda 0.5 -adviters 40
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
	"repro/internal/buildid"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	var (
		algoSpec  = flag.String("algo", "hypercube-adaptive:8", "algorithm spec, e.g. hypercube-adaptive:10, mesh-adaptive:16x16 (see -list)")
		list      = flag.Bool("list", false, "list known algorithm specs and exit")
		pattern   = flag.String("pattern", "random", "traffic pattern: random|complement|transpose|leveled|bit-reversal|mesh-transpose|hotspot:<frac>")
		inject    = flag.String("inject", "static", "injection model: static|dynamic")
		packets   = flag.Int("packets", 1, "static model: packets per node")
		lambda    = flag.Float64("lambda", 1.0, "dynamic model: per-cycle injection probability")
		tmodel    = flag.String("traffic", "", "dynamic traffic model: bernoulli|mmpp:on=,off=,p10=,p01=|onoff:hi=,lo=,period=,on=|trace:<path> (trace also replays under -inject static)")
		record    = flag.String("record", "", "record the run's injections as trace JSONL to this file (replay with -traffic trace:<file>)")
		warmup    = flag.Int64("warmup", 500, "dynamic model: warmup cycles")
		measure   = flag.Int64("measure", 1500, "dynamic model: measured cycles")
		seed      = flag.Int64("seed", 1, "simulation seed (the RunSpec seed: pattern and traffic use seed+1 and seed+2)")
		cap_      = flag.Int("cap", 5, "central queue capacity")
		policy    = flag.String("policy", "first-free", "selection policy: "+strings.Join(sim.PolicyNames, "|"))
		engine    = flag.String("engine", "buffered", "engine: buffered (Sections 6-7 node model) | buffered:vct (the same with virtual cut-through [KK79]) | atomic (Section 2 model)")
		workers   = flag.Int("workers", 1, "parallel workers for the buffered engine (the atomic engine refuses more than 1)")
		verify    = flag.Bool("verify", false, "verify deadlock freedom via the QDG checker first (small networks only)")
		hist      = flag.Bool("hist", false, "print a latency histogram and percentiles")
		maxCyc    = flag.Int64("maxcycles", 10_000_000, "static model: abort after this many cycles")
		faults    = flag.String("faults", "", "fault schedule, e.g. 'link:0:1@50,node:3@100+200,links:0.05@0' (packet engines only)")
		killLinks = flag.Float64("kill-links", 0, "kill this fraction of links at cycle 0 (seeded; shorthand for -faults links:<p>@0)")
		hopBudget = flag.Int("hop-budget", 0, "extra hops a fault-misrouted packet may take before being dropped (0 = default)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		phaseprof = flag.Bool("phaseprof", false, "time each engine phase and print ns per node-cycle by phase (results are unchanged)")
		advsearch = flag.Bool("advsearch", false, "adversarial mode: hill-climb over fixed permutations for the worst-case p99 latency of the dynamic run the flags describe, then exit")
		adviters  = flag.Int("adviters", 40, "adversarial mode: hill-climb iterations")
		advswaps  = flag.Int("advswaps", 0, "adversarial mode: transpositions per mutation (0 = nodes/64)")
		metrics   = flag.String("metrics", "", "write metric snapshots as JSON lines to this file ('-' for stdout)")
		mEvery    = flag.Int64("metrics-every", 100, "sampling period of -metrics, in cycles")
		httpAddr  = flag.String("http", "", "serve Prometheus /metrics and /debug/pprof on this address during the run, e.g. :6060")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fatal(f.Close())
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			fatal(err)
			runtime.GC() // flush recently-freed allocations out of the profile
			fatal(pprof.WriteHeapProfile(f))
			fatal(f.Close())
		}()
	}

	if *list {
		fmt.Println("packet algorithm specs:")
		for _, s := range repro.AlgorithmNames() {
			fmt.Println("  " + s)
		}
		return
	}

	faultSpec := *faults
	if *killLinks > 0 {
		spec := fmt.Sprintf("links:%g@0", *killLinks)
		if faultSpec != "" {
			faultSpec += "," + spec
		} else {
			faultSpec = spec
		}
	}
	rs := exec.RunSpec{
		Algo:      *algoSpec,
		Pattern:   *pattern,
		Engine:    *engine,
		Policy:    *policy,
		Seed:      *seed,
		Inject:    *inject,
		Traffic:   *tmodel,
		Packets:   *packets,
		Lambda:    *lambda,
		Warmup:    *warmup,
		Measure:   *measure,
		MaxCycles: *maxCyc,
		QueueCap:  *cap_,
		Faults:    faultSpec,
		HopBudget: *hopBudget,
		Workers:   *workers,
	}
	if *advsearch {
		if *tmodel != "" && *tmodel != "bernoulli" {
			fatal(errors.New("-advsearch scores Bernoulli traffic; drop -traffic"))
		}
		rs.Inject = "dynamic"
	}
	c, err := exec.Compile(rs)
	fatal(err)

	// Ctrl-C cancels the run within one cycle; the partial metrics of the
	// completed cycles are still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *advsearch {
		res, err := advSearch(ctx, c, *adviters, *advswaps)
		fatal(err)
		fmt.Print(formatAdv(*algoSpec, c, res))
		return
	}

	// Observability: compose the requested observers; -http attaches a no-op
	// one, because any observer turns on the metrics core the endpoint serves.
	var observers []repro.Observer
	var collector *repro.LatencyObserver
	if *hist {
		collector = repro.NewLatencyObserver()
		observers = append(observers, collector)
	}
	var jsonl *repro.JSONLObserver
	if *metrics != "" {
		w := os.Stdout
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			fatal(err)
			defer func() { fatal(f.Close()) }()
			w = f
		}
		jsonl = repro.NewJSONLObserver(w, *mEvery)
		observers = append(observers, jsonl)
	}
	if *httpAddr != "" {
		observers = append(observers, repro.ObserverBase{})
	}

	// Build the engine up front so -http can expose its live metrics core.
	kind, cfg := c.Config(c.Spec.Workers, repro.MultiObserver(observers...))
	cfg.PhaseProf = *phaseprof
	eng, err := repro.NewSimulator(kind, cfg)
	fatal(err)
	algo := eng.Algorithm()
	if *verify {
		start := time.Now()
		fatal(repro.VerifyDeadlockFree(algo))
		fmt.Printf("qdg: %s certified deadlock-free [%s]\n", algo.Name(), time.Since(start).Round(time.Millisecond))
	}
	if *httpAddr != "" {
		// net/http/pprof registers /debug/pprof/ on the default mux.
		http.Handle("/metrics", eng.Obs().Handler())
		go func() { fatal(http.ListenAndServe(*httpAddr, nil)) }()
		fmt.Printf("serving   : http://%s/metrics and /debug/pprof/\n", *httpAddr)
	}

	src, plan, err := c.Source()
	fatal(err)
	var recording *traffic.RecordingSource
	if *record != "" {
		f, err := os.Create(*record)
		fatal(err)
		defer func() { fatal(f.Close()) }()
		recording = &traffic.RecordingSource{Inner: src, Cap: 1, W: f}
		src = recording
	}

	start := time.Now()
	res, err := eng.Run(ctx, src, plan)
	if !res.Canceled {
		if derr := (*repro.ErrDeadlock)(nil); errors.As(err, &derr) && derr.Dump != nil {
			fmt.Fprintln(os.Stderr, derr.Dump)
		}
		fatal(err)
	}
	m := res.Metrics
	elapsed := time.Since(start).Round(time.Millisecond)
	if recording != nil {
		fatal(recording.Flush())
	}
	if errSrc, ok := src.(interface{ Err() error }); ok {
		fatal(errSrc.Err())
	}
	if res.Canceled {
		fmt.Printf("interrupted after %d cycles; partial metrics follow\n", m.Cycles)
	}

	s := c.Spec
	patternName, _, _ := strings.Cut(s.Pattern, ":")
	fmt.Printf("algorithm : %s on %s (%d queues/node, %s engine, policy %s)\n",
		algo.Name(), algo.Topology().Name(), algo.NumClasses(), s.Engine, s.Policy)
	fmt.Printf("traffic   : %s, %s", patternName, s.Inject)
	if *tmodel != "" {
		fmt.Printf(" model=%s", *tmodel)
	}
	if s.Inject == "dynamic" {
		fmt.Printf(" lambda=%g warmup=%d measure=%d", s.Lambda, s.Warmup, s.Measure)
	} else if *tmodel == "" {
		fmt.Printf(" packets/node=%d", s.Packets)
	}
	fmt.Println()
	fmt.Printf("fingerprint: %s\n", s.Fingerprint(buildid.ID()))
	fmt.Printf("cycles    : %d  [%s]\n", m.Cycles, elapsed)
	fmt.Printf("packets   : injected=%d delivered=%d in-flight=%d", m.Injected, m.Delivered, m.InFlight)
	if s.Faults != "" {
		fmt.Printf(" dropped=%d (faults: %s)", m.Dropped, s.Faults)
	}
	fmt.Println()
	fmt.Printf("latency   : avg=%.2f max=%d (over %d measured deliveries)\n", m.AvgLatency(), m.LatencyMax, m.Measured)
	if m.Attempts > 0 {
		fmt.Printf("inj. rate : %.1f%% (%d/%d attempts)\n", 100*m.InjectionRate(), m.Successes, m.Attempts)
	}
	fmt.Printf("movement  : %d moves, %d over dynamic links (%.1f%%), max queue occupancy %d\n",
		m.Moves, m.DynamicMoves, pct(m.DynamicMoves, m.Moves), m.MaxQueue)
	if *phaseprof {
		t := eng.PhaseTimes()
		nc := float64(t.Cycles) * float64(algo.Topology().Nodes())
		perNC := func(v int64) float64 { return float64(v) / nc }
		fmt.Printf("phases    : ns/node-cycle inject=%.2f a=%.2f b=%.2f link=%.2f merge=%.2f other=%.2f, moves/node-cycle=%.3f\n",
			perNC(t.InjectNs), perNC(t.PhaseANs), perNC(t.PhaseBNs), perNC(t.LinkNs),
			perNC(t.MergeNs), perNC(t.OtherNs), perNC(m.Moves))
	}
	if collector != nil {
		fmt.Printf("histogram : %s\n%s", collector.Summary(), collector.Histogram(16))
	}
	if jsonl != nil {
		fatal(jsonl.Err())
		fmt.Printf("metrics   : %d JSONL records -> %s\n", jsonl.Lines(), *metrics)
	}
	if recording != nil {
		fmt.Printf("recorded  : %d injections -> %s\n", recording.TotalTaken(), *record)
	}
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "routesim:", err)
		os.Exit(1)
	}
}
