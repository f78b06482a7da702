package sweep

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/exec"
)

// LPTOrder returns the indices of pending ordered longest-processing-time
// first: descending cost, ties broken by ascending Seq. Starting the most
// expensive cells first bounds the makespan tail — the classic LPT
// guarantee — so an n=14 dynamic cell never starts last and runs alone
// after every slot has drained.
func LPTOrder(jobs []Job, pending []int) []int {
	order := append([]int(nil), pending...)
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := jobs[order[a]], jobs[order[b]]
		if ja.Cost != jb.Cost {
			return ja.Cost > jb.Cost
		}
		return ja.Seq < jb.Seq
	})
	return order
}

// WorkersFor splits the global worker budget between concurrent cells and
// per-simulation parallelism. A cell receives a share of the budget
// proportional to its cost, floored at budget/slots, so the dominant cells
// (the n=14 dynamic runs) widen toward the whole machine instead of
// serializing the sweep tail on one worker; the share is capped by
// exec.WorkersBySize, so a cell whose network is too small to pay for a
// second worker, or whose results are not worker-invariant, gets one.
func WorkersFor(job Job, budget, slots int, maxCost float64) int {
	w := 1
	if maxCost > 0 {
		w = int(math.Round(float64(budget) * job.Cost / maxCost))
	}
	w = max(w, budget/slots)
	return max(1, min(w, exec.WorkersBySize(job.Nodes, budget, job.Parallelizable)))
}

// slotPool is a weighted admission gate: at most `jobs` cells run at once,
// and their worker grants sum to at most `budget`. Acquire blocks until
// both constraints admit the request; the dispatcher acquires in LPT order,
// so admission order is deterministic even though completion order is not.
type slotPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    int
	workers int
	closed  bool
}

func newSlotPool(jobs, workers int) *slotPool {
	p := &slotPool{jobs: jobs, workers: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire claims one job slot and w worker tokens, blocking until granted.
// It reports false if the pool closed (sweep canceled) while waiting.
// w must not exceed the pool's total budget.
func (p *slotPool) acquire(w int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && (p.jobs < 1 || p.workers < w) {
		p.cond.Wait()
	}
	if p.closed {
		return false
	}
	p.jobs--
	p.workers -= w
	return true
}

// release returns a cell's job slot and worker tokens.
func (p *slotPool) release(w int) {
	p.mu.Lock()
	p.jobs++
	p.workers += w
	p.mu.Unlock()
	p.cond.Broadcast()
}

// close unblocks every waiter; subsequent acquires fail.
func (p *slotPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// closeOnDone closes the pool when ctx is canceled, unblocking the
// dispatcher; the returned stop func releases the watcher goroutine.
func (p *slotPool) closeOnDone(ctx context.Context) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			p.close()
		case <-done:
		}
	}()
	return func() { close(done) }
}
