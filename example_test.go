package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// Routing one static workload end to end: build the paper's fully-adaptive
// hypercube algorithm, certify it deadlock-free, and drain a complement
// permutation — whose latency is exactly 2n+1 on an uncongested run.
func Example() {
	algo, err := repro.NewAlgorithm("hypercube-adaptive:6")
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.VerifyDeadlockFree(algo); err != nil {
		log.Fatal(err)
	}
	pat, err := repro.NewPattern("complement", algo, 1)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := repro.NewSimulator("buffered", repro.Config{Algorithm: algo, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), repro.NewStaticTraffic(pat, algo, 1, 2), repro.StaticPlan(100000))
	if err != nil {
		log.Fatal(err)
	}
	m := res.Metrics
	fmt.Printf("delivered %d packets, Lavg %.0f, Lmax %d\n", m.Delivered, m.AvgLatency(), m.LatencyMax)
	// Output: delivered 64 packets, Lavg 13, Lmax 13
}

// The queue-dependency-graph verifier certifies any algorithm exhaustively
// on a small instance; broken schemes are rejected with a concrete cycle.
func ExampleVerifyDeadlockFree() {
	for _, spec := range []string{"hypercube-adaptive:4", "shuffle-adaptive:4", "torus-adaptive:4x4"} {
		algo, err := repro.NewAlgorithm(spec)
		if err != nil {
			log.Fatal(err)
		}
		if err := repro.VerifyDeadlockFree(algo); err != nil {
			fmt.Println(spec, "FAILED:", err)
			continue
		}
		fmt.Println(spec, "certified")
	}
	// Output:
	// hypercube-adaptive:4 certified
	// shuffle-adaptive:4 certified
	// torus-adaptive:4x4 certified
}

// DescribeNode prints the Section 6 router design (Figures 4-6): the link
// buffers a node needs under a given algorithm.
func ExampleDescribeNode() {
	algo, err := repro.NewAlgorithm("hypercube-adaptive:3")
	if err != nil {
		log.Fatal(err)
	}
	desc, err := repro.DescribeNode(algo, 0b101)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(desc)
	// Node 101 has a single incorrect-zero dimension (bit 1), so every
	// ascending packet leaving it is performing its last 0->1 correction
	// and enters q_B directly: the ascending link carries only a qB buffer.
	// Output:
	// node 5 of hypercube(3) under hypercube-adaptive: 2 central queues (qA, qB) + injection + delivery
	//   port 0 -> node 4      out buffers: dynamic, qB
	//   port 1 -> node 7      out buffers: qB
	//   port 2 -> node 1      out buffers: dynamic, qB
	//   in from 4                      in buffers: qA, qB
	//   in from 7                      in buffers: qB
	//   in from 1                      in buffers: qA, qB
}
