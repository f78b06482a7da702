package sweep

import (
	"reflect"
	"testing"

	"repro/internal/exec"
)

func TestLPTOrder(t *testing.T) {
	jobs := []Job{
		{Seq: 0, Cost: 10},
		{Seq: 1, Cost: 500},
		{Seq: 2, Cost: 500},
		{Seq: 3, Cost: 9000},
		{Seq: 4, Cost: 1},
	}
	got := LPTOrder(jobs, []int{0, 1, 2, 3, 4})
	want := []int{3, 1, 2, 0, 4} // desc cost, ties by ascending Seq
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LPTOrder = %v, want %v", got, want)
	}
}

func TestLPTOrderSubset(t *testing.T) {
	jobs := []Job{
		{Seq: 0, Cost: 10},
		{Seq: 1, Cost: 500},
		{Seq: 2, Cost: 9000},
	}
	pending := []int{0, 2} // job 1 already in the store
	got := LPTOrder(jobs, pending)
	want := []int{2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LPTOrder = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(pending, []int{0, 2}) {
		t.Fatalf("LPTOrder mutated its input: %v", pending)
	}
}

// Cells are sized in nodes: the size rule (exec.WorkersBySize) caps every
// cost-proportional share, so "big" is a network with room for eight
// workers and "small" one with room for one.
func TestWorkersFor(t *testing.T) {
	const cost = 4 << 20
	big, small := 8*exec.NodesPerWorker, exec.NodesPerWorker/4
	cases := []struct {
		name          string
		job           Job
		budget, slots int
		maxCost       float64
		want          int
	}{
		{"not parallelizable", Job{Parallelizable: false, Nodes: big, Cost: cost}, 8, 2, cost, 1},
		{"budget one", Job{Parallelizable: true, Nodes: big, Cost: cost}, 1, 2, cost, 1},
		{"small network", Job{Parallelizable: true, Nodes: small, Cost: cost}, 8, 2, cost, 1},
		{"256 nodes under budget 2", Job{Parallelizable: true, Nodes: 256, Cost: cost}, 2, 1, cost, 1},
		{"dominant cell gets full budget", Job{Parallelizable: true, Nodes: big, Cost: cost}, 8, 2, cost, 8},
		{"size caps the dominant cell", Job{Parallelizable: true, Nodes: 3 * exec.NodesPerWorker, Cost: cost}, 8, 2, cost, 3},
		{"half-cost cell gets half", Job{Parallelizable: true, Nodes: big, Cost: cost / 2}, 8, 2, cost, 4},
		{"floor at budget/slots", Job{Parallelizable: true, Nodes: big, Cost: cost / 1000}, 8, 2, cost, 4},
		{"never exceeds budget", Job{Parallelizable: true, Nodes: big, Cost: cost}, 3, 1, cost / 2, 3},
	}
	for _, c := range cases {
		if got := WorkersFor(c.job, c.budget, c.slots, c.maxCost); got != c.want {
			t.Errorf("%s: WorkersFor = %d, want %d", c.name, got, c.want)
		}
	}
}

// No share WorkersFor hands out exceeds the size rule, at any size, budget,
// slot count or cost.
func TestWorkersForNeverExceedsRule(t *testing.T) {
	for nodes := 16; nodes <= 1<<14; nodes *= 2 {
		for budget := 1; budget <= 8; budget++ {
			for slots := 1; slots <= 3; slots++ {
				for _, par := range []bool{false, true} {
					for _, cost := range []float64{1, 1 << 20, 1 << 24} {
						job := Job{Nodes: nodes, Cost: cost, Parallelizable: par}
						got := WorkersFor(job, budget, slots, 1<<24)
						if rule := exec.WorkersBySize(nodes, budget, par); got < 1 || got > rule {
							t.Fatalf("WorkersFor(%+v, budget %d, slots %d) = %d, rule allows 1..%d", job, budget, slots, got, rule)
						}
					}
				}
			}
		}
	}
}

func TestSlotPoolAdmission(t *testing.T) {
	p := newSlotPool(2, 4)
	if !p.acquire(3) {
		t.Fatal("first acquire refused")
	}
	if !p.acquire(1) {
		t.Fatal("second acquire refused")
	}
	// Pool is now full on both axes; a third acquire must block until a
	// release, and must observe the freed capacity.
	done := make(chan bool, 1)
	go func() { done <- p.acquire(2) }()
	select {
	case <-done:
		t.Fatal("acquire succeeded with no free slot")
	default:
	}
	p.release(3)
	if ok := <-done; !ok {
		t.Fatal("acquire failed after release")
	}
	p.release(1)
	p.release(2)
}

func TestSlotPoolClose(t *testing.T) {
	p := newSlotPool(1, 1)
	if !p.acquire(1) {
		t.Fatal("acquire refused")
	}
	done := make(chan bool, 1)
	go func() { done <- p.acquire(1) }()
	p.close()
	if ok := <-done; ok {
		t.Fatal("acquire succeeded on a closed pool")
	}
	if p.acquire(1) {
		t.Fatal("acquire after close succeeded")
	}
}
