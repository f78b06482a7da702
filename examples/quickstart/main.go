// Quickstart: simulate the paper's fully-adaptive minimal deadlock-free
// routing algorithm on a 256-node hypercube.
//
//	go run ./examples/quickstart
//
// The program (1) certifies deadlock freedom mechanically on a small
// instance by building the queue dependency graph of Section 2, (2) runs a
// static random workload on the cycle-accurate simulator of Sections 6-7
// with a latency observer attached, and (3) runs the dynamic λ=1 workload
// under a cancelable context and reports the paper's three observables —
// average latency, maximum latency and effective injection rate — plus the
// metric snapshot the observability layer collected along the way.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// 1. Deadlock-freedom certification (exhaustive, so use a small cube).
	small, err := repro.NewAlgorithm("hypercube-adaptive:4")
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.VerifyDeadlockFree(small); err != nil {
		log.Fatal(err)
	}
	fmt.Println("qdg: hypercube-adaptive:4 certified deadlock-free")

	// 2. Static injection: every node sends 4 packets to random targets.
	// The engine is built from a Config literal (unset fields keep the
	// paper's defaults); the latency observer collects the full
	// per-delivery distribution (percentiles, histogram).
	algo, err := repro.NewAlgorithm("hypercube-adaptive:8")
	if err != nil {
		log.Fatal(err)
	}
	lat := repro.NewLatencyObserver()
	eng, err := repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 1, Observer: lat})
	if err != nil {
		log.Fatal(err)
	}
	pat, err := repro.NewPattern("random", algo, 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(),
		repro.NewStaticTraffic(pat, algo, 4, 2), repro.StaticPlan(1_000_000))
	if err != nil {
		log.Fatal(err)
	}
	m := res.Metrics
	fmt.Printf("static : delivered %d packets in %d cycles, Lavg=%.2f Lmax=%d p99=%d\n",
		m.Delivered, m.Cycles, m.AvgLatency(), m.LatencyMax, lat.Percentile(99))

	// 3. Dynamic injection at λ=1 (every node tries to inject every cycle).
	// A sampler records queue occupancy over time; the final snapshot in
	// the RunResult carries every counter the engine maintains. Run stops
	// within one cycle if the context is canceled — pass a deadline to
	// bound wall-clock time.
	smp := repro.NewSampler(100)
	eng, err = repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 1, Observer: smp})
	if err != nil {
		log.Fatal(err)
	}
	res, err = eng.Run(context.Background(),
		repro.NewDynamicTraffic(pat, algo, 1.0, 3), repro.DynamicPlan(300, 1000))
	if err != nil {
		log.Fatal(err)
	}
	m = res.Metrics
	fmt.Printf("dynamic: Lavg=%.2f Lmax=%d Ir=%.0f%% (%.1f%% of moves used dynamic links)\n",
		m.AvgLatency(), m.LatencyMax, 100*m.InjectionRate(),
		100*float64(m.DynamicMoves)/float64(m.Moves))
	snap := res.Snapshot
	fmt.Printf("metrics: %d link transfers, %d output-buffer stalls, %d injection backpressure events\n",
		snap.Counter(repro.CLinkTransfers), snap.Counter(repro.COutputStalls),
		snap.Counter(repro.CInjBackpressure))
	last := smp.Samples[len(smp.Samples)-1]
	fmt.Printf("sampled: %d occupancy points; at cycle %d the queues held %d packets\n",
		len(smp.Samples), last.Cycle, last.QueueOcc)

	// 4. The same dynamic run, described as a canonical RunSpec — the
	// serializable JSON form the routesimd daemon accepts over HTTP and the
	// result store caches. Identical specs yield bit-identical metrics, so
	// the spec's fingerprint is a content address for its result.
	spec := repro.RunSpec{
		Algo:     "hypercube-adaptive",
		Topology: "hypercube:8",
		Pattern:  "random",
		Inject:   "dynamic",
		Lambda:   1,
		Warmup:   300,
		Measure:  1000,
		Seed:     1,
	}
	sres, err := repro.ExecuteSpec(context.Background(), spec, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("runspec: fingerprint %s, Lavg=%.2f (bit-identical to the dynamic run: %v)\n",
		sres.FP, sres.Metrics.AvgLatency(), sres.Metrics == m)
}
