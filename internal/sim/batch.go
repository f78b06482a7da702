package sim

import "repro/internal/core"

// BatchSource is the optional batched extension of TrafficSource. A source
// that implements it lets the engines replace the per-node Wants/Take
// interface dispatch of the injection phase with one FillCycle call per
// worker shard per cycle: the source writes the cycle's injections into a
// flat buffer and the engine commits them in a tight loop with no interface
// calls inside. Both engines detect the interface at the start of a run;
// runs with fault injection always use the scalar path.
//
// The contract makes the two paths bit-identical, which the determinism
// tests pin:
//
//   - full is the engine's injection-queue occupancy bitmap: bit u (word
//     u/64, bit u%64) is set while node u's injection queue is occupied, so
//     an attempt there fails. FillCycle must count such attempts in blocked
//     without consuming a destination draw — exactly like the scalar path,
//     where a Wants against a full queue is counted but Take is not called.
//   - Free nodes that attempt must append to out in ascending node order
//     and consume per-node generator state exactly as the scalar
//     Wants-then-Take sequence would.
//   - [lo, hi) is one worker's shard; lo is 64-aligned and hi is either
//     64-aligned or the node count. FillCycle must touch only per-node
//     state of [lo, hi) and only the words of full covering [lo, hi):
//     other words are concurrently owned by other workers. Any shared
//     state (e.g. a trace reader) must synchronize internally and behave
//     identically for every shard decomposition.
//   - out has capacity for at least hi-lo entries.
type BatchSource interface {
	TrafficSource
	// FillCycle produces the injections of nodes [lo, hi) for cycle. It
	// returns the number of entries written to out and the count of
	// attempts that failed against an occupied injection queue.
	FillCycle(cycle int64, lo, hi int32, full []uint64, out []core.PendingInject) (n, blocked int)
}
