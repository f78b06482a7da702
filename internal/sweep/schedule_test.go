package sweep

import (
	"reflect"
	"testing"
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

func TestWorkersFor(t *testing.T) {
	big := float64(DefaultSmallCost) * 4
	cases := []struct {
		name               string
		job                Job
		budget, slots      int
		smallCost, maxCost float64
		want               int
	}{
		{"not parallelizable", Job{Parallelizable: false, Cost: big}, 8, 2, DefaultSmallCost, big, 1},
		{"budget one", Job{Parallelizable: true, Cost: big}, 1, 2, DefaultSmallCost, big, 1},
		{"below small cost", Job{Parallelizable: true, Cost: 100}, 8, 2, DefaultSmallCost, big, 1},
		{"dominant cell gets full budget", Job{Parallelizable: true, Cost: big}, 8, 2, DefaultSmallCost, big, 8},
		{"half-cost cell gets half", Job{Parallelizable: true, Cost: big / 2}, 8, 2, DefaultSmallCost, big, 4},
		{"floor at budget/slots", Job{Parallelizable: true, Cost: big / 1000}, 8, 2, 0, big, 4},
		{"never exceeds budget", Job{Parallelizable: true, Cost: big}, 3, 1, DefaultSmallCost, big / 2, 3},
	}
	for _, c := range cases {
		if got := WorkersFor(c.job, c.budget, c.slots, c.smallCost, c.maxCost); got != c.want {
			t.Errorf("%s: WorkersFor = %d, want %d", c.name, got, c.want)
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
