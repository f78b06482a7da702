package exec

import (
	"context"
	"runtime"
	"testing"
)

func TestWorkersBySizeRule(t *testing.T) {
	cases := []struct {
		nodes, budget int
		par           bool
		want          int
	}{
		{64, 8, true, 1},
		{256, 2, true, 1},
		{NodesPerWorker - 1, 8, true, 1},
		{NodesPerWorker, 8, true, 1},
		{2 * NodesPerWorker, 8, true, 2},
		{4096, 2, true, min(2, 4096/NodesPerWorker)},
		{1 << 14, 8, true, min(8, (1<<14)/NodesPerWorker)},
		{1 << 14, 1, true, 1},
		{1 << 14, 0, true, 1},
		{1 << 14, 8, false, 1},
	}
	for _, c := range cases {
		if got := WorkersBySize(c.nodes, c.budget, c.par); got != c.want {
			t.Errorf("WorkersBySize(%d, %d, %v) = %d, want %d", c.nodes, c.budget, c.par, got, c.want)
		}
	}
}

// A run that names no worker count takes the size rule's under a budget of
// GOMAXPROCS, records it in Result.Spec, and computes what the same spec
// computes on one worker.
func TestWorkersBySizeRecordedByRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dyn := RunSpec{Inject: "dynamic", Lambda: 0.05, Warmup: 10, Measure: 30, Seed: 1}
	graph, cube, shuffle, atomic := dyn, dyn, dyn, dyn
	graph.Algo, graph.Topology = "graph-adaptive", "graph:random-regular:n=4096,k=3,seed=1"
	cube.Algo = "hypercube-adaptive:8"
	shuffle.Algo = "shuffle-adaptive:6"
	atomic.Algo, atomic.Engine = "hypercube-adaptive:12", "atomic"
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		cases := []struct {
			name string
			spec RunSpec
			want int
		}{
			{"graph n=4096", graph, min(procs, 4096/NodesPerWorker)},
			{"hypercube-adaptive:8", cube, 1},
			{"shuffle-adaptive:6 (credited)", shuffle, 1},
			{"atomic engine", atomic, 1},
		}
		for _, tc := range cases {
			res, err := Run(context.Background(), tc.spec, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.Spec.Workers != tc.want {
				t.Errorf("GOMAXPROCS %d, %s: Workers 0 ran on %d workers, want %d", procs, tc.name, res.Spec.Workers, tc.want)
			}
			one := tc.spec
			one.Workers = 1
			ref, err := Run(context.Background(), one, nil)
			if err != nil {
				t.Fatalf("%s at 1 worker: %v", tc.name, err)
			}
			if res.Metrics != ref.Metrics || res.FP != ref.FP {
				t.Errorf("GOMAXPROCS %d, %s: %d workers changed the run:\n got  %+v\n want %+v", procs, tc.name, res.Spec.Workers, res.Metrics, ref.Metrics)
			}
		}
	}
}

// An explicit count is honoured as given, and a grant applies only where
// the spec names none.
func TestWorkersExplicitHonoured(t *testing.T) {
	c, err := Compile(RunSpec{Algo: "hypercube-adaptive:4", Inject: "dynamic", Warmup: 5, Measure: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Workers(3); got != 3 {
		t.Errorf("Workers(3) on a 16-node spec = %d, want 3", got)
	}
	res, err := c.Run(context.Background(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Workers != 2 {
		t.Errorf("grant of 2 recorded %d workers", res.Spec.Workers)
	}
	named, err := Compile(RunSpec{Algo: "hypercube-adaptive:4", Inject: "dynamic", Warmup: 5, Measure: 10, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := named.Run(context.Background(), 2, nil); err != nil || res.Spec.Workers != 3 {
		t.Errorf("spec naming 3 workers under a grant of 2 ran on %d (err %v), want 3", res.Spec.Workers, err)
	}
}
