package traffic

import (
	"math/bits"

	"repro/internal/core"
)

// This file implements sim.BatchSource for the package's sources. Every
// FillCycle must consume per-node generator state exactly as the scalar
// Wants-then-Take sequence would, so the batched and scalar injection paths
// stay bit-identical (pinned by TestBatchInjectParity in internal/sim).

// batchFiller is the FillCycle half of the engines' BatchSource interface,
// restated locally so this package need not import the engines.
type batchFiller interface {
	FillCycle(cycle int64, lo, hi int32, full []uint64, out []core.PendingInject) (n, blocked int)
}

// FillCycle implements sim.BatchSource: each node with allotment left
// attempts; attempts against an occupied injection queue are counted and
// consume nothing, like the scalar path (Wants uses no generator state). It
// walks the left bitmap a word at a time, as BernoulliSource's λ >= 1 path
// walks every node, so a drained word costs one test; left has no bits past
// the node count, so a shard ending there needs no mask.
func (s *StaticSource) FillCycle(_ int64, lo, hi int32, full []uint64, out []core.PendingInject) (n, blocked int) {
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		w := s.left[wi]
		if w == 0 {
			continue
		}
		occ := w & full[wi]
		blocked += bits.OnesCount64(occ)
		for free := w &^ occ; free != 0; free &= free - 1 {
			u := wi<<6 + int32(bits.TrailingZeros64(free))
			out[n] = core.PendingInject{Node: u, Dst: s.Take(u, 0)}
			n++
		}
	}
	return n, blocked
}

// FillCycle implements sim.BatchSource. At lambda >= 1 every node attempts
// and Wants consumes no generator state, so occupied queues are counted
// word-at-a-time with a popcount and only the free nodes draw destinations —
// this is the saturation fast path the batched engines lean on. Below 1,
// every node flips its coin (consumed whether or not the queue has room,
// matching the scalar path where Wants precedes the queue check) and only
// willing nodes with a free queue draw a destination.
func (s *BernoulliSource) FillCycle(_ int64, lo, hi int32, full []uint64, out []core.PendingInject) (n, blocked int) {
	if s.lambda >= 1 {
		for base := lo; base < hi; base += 64 {
			wi := base >> 6
			mask := ^uint64(0)
			if rem := hi - base; rem < 64 {
				mask = (uint64(1) << uint(rem)) - 1
			}
			occ := full[wi] & mask
			blocked += bits.OnesCount64(occ)
			for free := mask &^ occ; free != 0; free &= free - 1 {
				u := base + int32(bits.TrailingZeros64(free))
				out[n] = core.PendingInject{Node: u, Dst: s.pattern.Dest(u, &s.rngs[u])}
				n++
			}
		}
		return n, blocked
	}
	for u := lo; u < hi; u++ {
		if !s.rngs[u].Coin(s.lambda) {
			continue
		}
		if full[u>>6]&(1<<(uint(u)&63)) != 0 {
			blocked++
			continue
		}
		out[n] = core.PendingInject{Node: u, Dst: s.pattern.Dest(u, &s.rngs[u])}
		n++
	}
	return n, blocked
}
