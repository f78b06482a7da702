package sim

import (
	"math/bits"

	"repro/internal/core"
)

// What the sim_test package's Section 2 reference (reference_test.go) shares
// with the engines: pure helpers, a test algorithm and the model's constants.
var MisrouteHash, NewManyClassRing = misrouteHash, func() core.Algorithm { return newManyClassRing() }

const DeadlockWindow, MaxBackoffShift, DefaultHopBudget = deadlockWindow, maxBackoffShift, defaultHopBudget

// Parked counts e's parked queues and the pops on deferred, whose waiters
// the next drain rechecks; the reference test reads it only to show that a
// cell parked heads, or that an engine that must not park never did.
func (e *AtomicEngine) Parked() (queues, deferred int) {
	for _, w := range e.stuck {
		queues += bits.OnesCount64(w)
	}
	return queues, len(e.deferred)
}
