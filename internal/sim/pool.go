package sim

import (
	"runtime"
	"sync/atomic"
)

// phasePool is the persistent worker pool behind the buffered engine's
// parallel phases. The workers are spawned once (in NewEngine) and parked on
// a lightweight phase barrier: release is an atomic epoch bump that waiting
// workers observe by spinning, with a mutex/cond park as the slow path, so
// the four phases of every cycle cost neither goroutine creation nor
// WaitGroup churn. Worker 0 is the coordinator itself: run executes shard 0
// inline, so a pool of n workers owns only n-1 goroutines.
//
// The barrier doubles as the memory fence of the engine's determinism
// argument: every plain field a worker reads (the per-cycle run state, the
// shard-owned arrays) is written before the epoch bump and read after
// observing it, and every worker write is sequenced before the pending
// countdown the coordinator waits on.
type phasePool struct {
	n  int           // total workers, including the inline worker 0
	fn func(w int)   // current phase body; set by run before the epoch bump
	mu chan struct{} // slow-path park lock (1-buffered semaphore)

	epoch    atomic.Uint32 // bumped once per phase to release the workers
	pending  atomic.Int32  // workers still inside the current phase
	sleepers atomic.Int32  // workers parked on the slow path
	parks    atomic.Int64  // slow-path channel waits so far (PhaseTimes.Parks)
	stopping atomic.Bool   // set once; workers drain and exit
	wake     chan struct{} // closed-and-replaced broadcast for parked workers
}

// Spin budgets of the barrier fast path. The first loop is a pure atomic
// spin (the release gap between phases is a few hundred nanoseconds when
// the coordinator merges once per cycle); the second yields the processor
// so single-P runs with many workers cannot livelock; after both, workers
// park and cost one futex wake.
const (
	poolSpin  = 512
	poolYield = 128
)

// newPhasePool spawns n-1 worker goroutines parked on the barrier.
func newPhasePool(n int) *phasePool {
	p := &phasePool{n: n, wake: make(chan struct{}), mu: make(chan struct{}, 1)}
	p.mu <- struct{}{}
	for w := 1; w < n; w++ {
		go p.loop(w)
	}
	return p
}

// run executes fn(w) for every worker shard and returns when all are done.
func (p *phasePool) run(fn func(w int)) {
	p.fn = fn
	p.pending.Store(int32(p.n - 1))
	p.epoch.Add(1)
	if p.sleepers.Load() > 0 {
		p.broadcast()
	}
	fn(0)
	for i := 0; p.pending.Load() != 0; i++ {
		if i > poolSpin {
			runtime.Gosched()
		}
	}
}

// clear drops the phase closure so the pool does not retain the engine
// between runs (the finalizer of the engine's pool handle is what
// eventually stops the pool).
func (p *phasePool) clear() { p.fn = nil }

// stop releases the workers for exit. Safe to call more than once; called
// from the finalizer of the engine's pool handle, so it must not block on a
// running phase (by construction it cannot: the engine is unreachable,
// hence no run is live).
func (p *phasePool) stop() {
	if p.stopping.Swap(true) {
		return
	}
	p.epoch.Add(1)
	p.broadcast()
}

// broadcast wakes every parked worker by replacing the wake channel and
// closing the old one.
func (p *phasePool) broadcast() {
	<-p.mu
	old := p.wake
	p.wake = make(chan struct{})
	p.mu <- struct{}{}
	close(old)
}

// loop is the body of one pooled worker.
func (p *phasePool) loop(w int) {
	last := uint32(0)
	for {
		last = p.await(last)
		if p.stopping.Load() {
			return
		}
		p.fn(w)
		p.pending.Add(-1)
	}
}

// await blocks until the epoch moves past last and returns the new value:
// atomic spin, then yield, then park.
func (p *phasePool) await(last uint32) uint32 {
	for i := 0; i < poolSpin; i++ {
		if e := p.epoch.Load(); e != last {
			return e
		}
	}
	for i := 0; i < poolYield; i++ {
		if e := p.epoch.Load(); e != last {
			return e
		}
		runtime.Gosched()
	}
	for {
		<-p.mu
		wake := p.wake
		p.mu <- struct{}{}
		// Publish the intent to sleep BEFORE re-checking the epoch: atomics
		// are sequentially consistent, so a release that this check misses
		// must observe sleepers > 0 and broadcast, which closes the wake
		// generation captured above — the park cannot miss it.
		p.sleepers.Add(1)
		if e := p.epoch.Load(); e != last {
			p.sleepers.Add(-1)
			return e
		}
		p.parks.Add(1)
		<-wake
		p.sleepers.Add(-1)
	}
}
