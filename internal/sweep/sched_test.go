package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
)

func TestSchedulerRunsTasks(t *testing.T) {
	s := NewScheduler(2, 4, 8)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		err := s.TrySubmit(Task{Run: func(int) {
			n.Add(1)
			wg.Done()
		}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	s.Close()
	if n.Load() != 5 {
		t.Fatalf("ran %d tasks, want 5", n.Load())
	}
}

// Small or worker-sensitive tasks get one worker, passed as 1; tasks on
// networks the size rule lets widen get an equal split of the budget.
func TestSchedulerWorkerGrants(t *testing.T) {
	big := 8 * exec.NodesPerWorker
	s := NewScheduler(2, 8, 8)
	defer s.Close()
	if w := runGranted(t, s, Task{Nodes: big, Parallelizable: true}); w != 4 {
		t.Errorf("large parallelizable task got %d workers, want 8/2=4", w)
	}
	if w := runGranted(t, s, Task{Nodes: big, Parallelizable: false}); w != 1 {
		t.Errorf("non-parallelizable task got workers=%d, want 1", w)
	}
	if w := runGranted(t, s, Task{Nodes: exec.NodesPerWorker / 4, Parallelizable: true}); w != 1 {
		t.Errorf("small task got workers=%d, want 1", w)
	}
	if w := runGranted(t, s, Task{Nodes: 2 * exec.NodesPerWorker, Parallelizable: true}); w != 2 {
		t.Errorf("task sized for two workers got %d, want 2", w)
	}
	// Under budget 2 a parallelizable 256-node task runs on one worker:
	// only its size could buy it a second.
	two := NewScheduler(1, 2, 1)
	defer two.Close()
	if w := runGranted(t, two, Task{Nodes: 256, Parallelizable: true}); w != 1 {
		t.Errorf("256-node task under budget 2 got %d workers, want 1", w)
	}
}

// No grant exceeds the size rule under the scheduler's budget.
func TestSchedulerGrantNeverExceedsRule(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {1, 2}, {2, 8}, {3, 8}, {1, 8}} {
		s := &Scheduler{jobs: shape[0], budget: shape[1]}
		for nodes := 16; nodes <= 1<<14; nodes *= 2 {
			for _, par := range []bool{false, true} {
				got := s.grant(Task{Nodes: nodes, Parallelizable: par})
				if rule := exec.WorkersBySize(nodes, s.budget, par); got < 1 || got > rule {
					t.Fatalf("jobs %d budget %d: grant(%d nodes, par %v) = %d, rule allows 1..%d", s.jobs, s.budget, nodes, par, got, rule)
				}
			}
		}
	}
}

// runGranted submits task to s and returns the worker count its Run got.
func runGranted(t *testing.T, s *Scheduler, task Task) int {
	t.Helper()
	ch := make(chan int, 1)
	task.Run = func(w int) { ch <- w }
	if err := s.TrySubmit(task); err != nil {
		t.Fatal(err)
	}
	return <-ch
}

// The backpressure contract the daemon's 429 path relies on: with every
// slot busy and the queue full, TrySubmit fails fast with ErrQueueFull.
func TestSchedulerQueueFull(t *testing.T) {
	s := NewScheduler(1, 1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := s.TrySubmit(Task{Run: func(int) { close(started); <-block }}); err != nil {
		t.Fatal(err)
	}
	<-started // the slot is now occupied
	if err := s.TrySubmit(Task{Run: func(int) { <-block }}); err != nil {
		t.Fatalf("queue of cap 1 rejected its first queued task: %v", err)
	}
	// Slot busy, queue holding one task: the next submission must bounce.
	// The dispatcher may briefly hold the queued task before blocking on
	// the pool, so allow a short settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := s.TrySubmit(Task{Run: func(int) {}})
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled: TrySubmit kept succeeding")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	s.Close()
}

func TestSchedulerClosed(t *testing.T) {
	s := NewScheduler(1, 1, 4)
	s.Close()
	if err := s.TrySubmit(Task{Run: func(int) {}}); !errors.Is(err, ErrSchedClosed) {
		t.Fatalf("submit after Close: %v, want ErrSchedClosed", err)
	}
	s.Close() // idempotent
}

// Close waits for everything already admitted or queued to finish.
func TestSchedulerCloseDrains(t *testing.T) {
	s := NewScheduler(1, 1, 8)
	var n atomic.Int64
	for i := 0; i < 4; i++ {
		if err := s.TrySubmit(Task{Run: func(int) {
			time.Sleep(5 * time.Millisecond)
			n.Add(1)
		}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if n.Load() != 4 {
		t.Fatalf("Close returned with %d/4 tasks finished", n.Load())
	}
}
