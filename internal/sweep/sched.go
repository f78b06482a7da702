package sweep

import (
	"errors"
	"sync"

	"repro/internal/exec"
)

// ErrQueueFull reports that a Scheduler's bounded submission queue is at
// capacity; the daemon maps it to HTTP 429 backpressure.
var ErrQueueFull = errors.New("sweep: job queue full")

// ErrSchedClosed reports a submission to a closed Scheduler.
var ErrSchedClosed = errors.New("sweep: scheduler closed")

// Task is one unit of work submitted to a Scheduler: the size of its
// network, whether its results are invariant under Workers > 1, and the
// function to run. Run receives the worker grant the scheduler decided for
// it.
type Task struct {
	Nodes          int
	Parallelizable bool
	Run            func(workers int)
}

// Scheduler is the long-running form of the sweep's admission machinery,
// built for the daemon's request traffic: where Run schedules a fixed job
// list LPT-first and exits, the Scheduler accepts tasks forever through a
// bounded queue, admits them through the same weighted slot pool (at most
// `jobs` concurrent tasks, worker grants summing to at most `budget`), and
// grants each the worker count the sweep's split rules would give it.
// Submission order is service order (no LPT re-sort: a service must not
// starve cheap requests behind expensive ones).
type Scheduler struct {
	pool   *slotPool
	tasks  chan Task
	jobs   int
	budget int

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // running tasks
	loopWg sync.WaitGroup // dispatcher goroutine
}

// NewScheduler starts a scheduler with `jobs` concurrent task slots, a
// total worker budget of `budget`, and a submission queue of queueCap
// pending tasks (beyond the ones already running). jobs and budget floor
// at 1; queueCap at 0 (every submission beyond the running set is
// rejected).
func NewScheduler(jobs, budget, queueCap int) *Scheduler {
	if jobs < 1 {
		jobs = 1
	}
	if budget < 1 {
		budget = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	s := &Scheduler{
		pool:   newSlotPool(jobs, budget),
		tasks:  make(chan Task, queueCap),
		jobs:   jobs,
		budget: budget,
	}
	s.loopWg.Add(1)
	go s.dispatch()
	return s
}

// grant decides a task's worker count: the online analogue of WorkersFor.
// A task receives an equal split of the budget across slots (no
// cost-proportional widening — an online scheduler cannot know the queue's
// future cost distribution), capped by exec.WorkersBySize: a small or
// worker-sensitive task runs on one worker.
func (s *Scheduler) grant(t Task) int {
	return max(1, min(s.budget/s.jobs, exec.WorkersBySize(t.Nodes, s.budget, t.Parallelizable)))
}

// dispatch admits queued tasks through the slot pool, in submission order.
func (s *Scheduler) dispatch() {
	defer s.loopWg.Done()
	for t := range s.tasks {
		w := s.grant(t)
		if !s.pool.acquire(w) {
			return // pool closed: drop remaining queued tasks
		}
		s.wg.Add(1)
		go func(t Task, w int) {
			defer s.wg.Done()
			defer s.pool.release(w)
			t.Run(w)
		}(t, w)
	}
}

// TrySubmit enqueues a task without blocking. It returns ErrQueueFull when
// the bounded queue is at capacity (the backpressure signal) and
// ErrSchedClosed after Close.
func (s *Scheduler) TrySubmit(t Task) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSchedClosed
	}
	select {
	case s.tasks <- t:
		s.mu.Unlock()
		return nil
	default:
		s.mu.Unlock()
		return ErrQueueFull
	}
}

// QueueLen reports the number of tasks waiting for admission (not yet
// granted a slot), for the daemon's metrics page.
func (s *Scheduler) QueueLen() int { return len(s.tasks) }

// Close stops accepting tasks and waits for the queue to drain and every
// running task to finish. The scheduler does not cancel work it already
// admitted — cancel the tasks' own ctx first for a fast stop.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.tasks)
	s.mu.Unlock()
	s.loopWg.Wait()
	s.wg.Wait()
	s.pool.close()
}
