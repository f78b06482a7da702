// Hot-region measurement: Section 3 motivates the dynamic links with the
// observation that, when messages must correct all their 0->1 dimensions
// before any 1->0 dimension, "congestion around node 1...1 is likely to
// take place" — the hung cube funnels phase-A traffic toward its bottom.
//
// This example measures the claim directly: it runs the complement
// permutation (the worst case: every packet must cross the whole cube) with
// n packets per node through the hung scheme and the fully-adaptive scheme,
// samples every q_A queue each cycle, and prints the time-averaged
// occupancy grouped by the Hamming weight (level) of the node. Without
// dynamic links the occupancy piles up at the high levels near 1...1; with
// them it stays flat and the workload drains in a fraction of the cycles.
//
//	go run ./examples/hotregion
package main

import (
	"context"
	"fmt"
	"log"
	"math/bits"
	"strings"

	"repro"
)

const dims = 9

// qaProbe is an Observer that samples every q_A queue at the end of each
// cycle, accumulating occupancy by the Hamming level of the node. OnCycle
// runs outside the engine's parallel phases, so copying the engine's State
// there is safe.
type qaProbe struct {
	repro.ObserverBase
	eng     repro.Simulator
	sum     []float64
	samples int
}

func (p *qaProbe) OnCycle(cycle int64, _ *repro.MetricSnapshot) {
	p.samples++
	s := p.eng.State()
	for qi := 0; qi < len(s.Queues); qi += s.Classes { // q_A: class 0
		p.sum[bits.OnesCount32(uint32(qi/s.Classes))] += float64(len(s.Queues[qi]))
	}
}

// profile runs the workload and returns the time-averaged q_A occupancy per
// node level plus the drain time.
func profile(spec string) ([]float64, int64) {
	algo, err := repro.NewAlgorithm(spec)
	if err != nil {
		log.Fatal(err)
	}
	nodesAt := make([]float64, dims+1) // nodes per level
	for u := 0; u < 1<<dims; u++ {
		nodesAt[bits.OnesCount32(uint32(u))]++
	}
	probe := &qaProbe{sum: make([]float64, dims+1)}
	eng, err := repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 17, Observer: probe})
	if err != nil {
		log.Fatal(err)
	}
	probe.eng = eng
	pat, err := repro.NewPattern("complement", algo, 5)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), repro.NewStaticTraffic(pat, algo, dims, 23), repro.StaticPlan(10_000_000))
	if err != nil {
		log.Fatal(err)
	}
	m := res.Metrics
	avg := make([]float64, dims+1)
	for l := range avg {
		avg[l] = probe.sum[l] / float64(probe.samples) / nodesAt[l]
	}
	return avg, m.Cycles
}

func main() {
	fmt.Printf("hypercube n=%d, complement permutation, %d packets per node\n", dims, dims)
	fmt.Println("time-averaged q_A occupancy per node (by Hamming level; capacity 5):")
	fmt.Printf("\n%-6s %-32s %-32s\n", "level", "hypercube-hung (no dyn links)", "hypercube-adaptive")

	hung, hungCycles := profile(fmt.Sprintf("hypercube-hung:%d", dims))
	adapt, adaptCycles := profile(fmt.Sprintf("hypercube-adaptive:%d", dims))
	for l := 0; l <= dims; l++ {
		fmt.Printf("%4d   %5.2f %-26s %5.2f %s\n",
			l, hung[l], bar(hung[l]), adapt[l], bar(adapt[l]))
	}
	fmt.Printf("\ndrain time: hung %d cycles, adaptive %d cycles (%.1fx faster)\n",
		hungCycles, adaptCycles, float64(hungCycles)/float64(adaptCycles))
	fmt.Println("\nThe hung scheme's q_A load climbs steeply toward level n (node 1...1),")
	fmt.Println("exactly the congestion Section 3 predicts; the dynamic links flatten it.")
}

func bar(v float64) string {
	n := int(v * 5)
	if n > 25 {
		n = 25
	}
	return strings.Repeat("#", n)
}
