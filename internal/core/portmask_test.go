package core

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

// movesFromMasks expands a PortMasks value into the Move list it promises:
// one uncredited MinFree-1 remote move per set bit, in ascending port order,
// under either encoding.
func movesFromMasks(t topology.Topology, node int32, pm *PortMasks) []Move {
	var out []Move
	all := pm.StaticUnion() | pm.Dyn
	for p := 0; p < 32; p++ {
		bit := uint32(1) << uint(p)
		if all&bit == 0 {
			continue
		}
		mv := Move{Node: int32(t.Neighbor(int(node), p)), Port: int16(p), MinFree: 1}
		if pm.Dyn&bit != 0 {
			mv.Kind = Dynamic
			mv.Class = pm.DynClass
			mv.Work = pm.DynWork
		} else {
			mv.Class = pm.StaticClass(p)
			mv.Work = pm.Work
		}
		out = append(out, mv)
	}
	return out
}

// maskShaped reports whether the candidate set could be represented by
// PortMasks at all: only remote, uncredited, MinFree-1 moves. A PortMask
// implementation may decline any state, but declining a mask-shaped state
// forfeits the fast path, so the property test also tracks acceptance
// coverage per implementor.
func maskShaped(moves []Move) bool {
	for i := range moves {
		m := &moves[i]
		if m.Deliver || m.Port == PortInternal || m.Credit != 0 || m.MinFree != 1 {
			return false
		}
	}
	return true
}

// checkMaskState cross-checks PortMask against Candidates in one state and
// returns whether the implementation accepted it.
func checkMaskState(t *testing.T, a Algorithm, pmr PortMaskRouter,
	node int32, class QueueClass, work uint32, dst int32, want []Move) bool {
	t.Helper()
	var pm PortMasks
	ok := pmr.PortMask(node, class, work, dst, &pm)
	ctx := func() string {
		return fmt.Sprintf("%s node=%d dst=%d class=%d work=%#x", a.Name(), node, dst, class, work)
	}
	if !ok {
		if maskShaped(want) && len(want) > 0 {
			// Declining is always *safe* (the engines fall back per state),
			// but every current implementor accepts exactly the mask-shaped
			// states, so a decline here is a lost fast path — flag it.
			t.Fatalf("%s: PortMask declined a mask-shaped state with moves %v", ctx(), want)
		}
		return false
	}
	if !maskShaped(want) {
		t.Fatalf("%s: PortMask accepted a state with non-mask moves %v", ctx(), want)
	}
	// Disjointness invariant under the active encoding.
	seen := uint32(0)
	masks := []uint32{pm.Dyn, pm.StaticMask}
	if !pm.PerPort {
		masks = []uint32{pm.Dyn, pm.Static[0], pm.Static[1], pm.Static[2], pm.Static[3]}
	}
	for _, m := range masks {
		if seen&m != 0 {
			t.Fatalf("%s: overlapping masks %+v", ctx(), pm)
		}
		seen |= m
	}
	got := movesFromMasks(a.Topology(), node, &pm)
	if len(got) != len(want) {
		t.Fatalf("%s: %d mask moves %v, %d candidates %v", ctx(), len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s move %d: mask %+v != candidate %+v", ctx(), i, got[i], want[i])
		}
	}
	return true
}

// maskState is a routing state as the engines see it: a packet in queue
// (node, class) with scratch work. The destination is fixed per walk.
type maskState struct {
	node  int32
	class QueueClass
	work  uint32
}

// TestPortMaskMatchesCandidatesReachable is the PortMaskRouter property test:
// for every algorithm constructor (including the ablation variants), walk
// every (class, work) state reachable from every Inject result via
// Candidates, and in each state require PortMask to either decline (legal
// only when the candidate set contains an internal, delivery, or credited
// move) or reproduce the Candidates output move-by-move. Both engines rely on
// this equivalence for bit-determinism, since a run routes each packet
// through whichever path its state selects. The hypercube entries check the
// mesh schemes' bit path (every side 2) against the per-dimension loop of
// Candidates; the other meshes check the loop path.
func TestPortMaskMatchesCandidatesReachable(t *testing.T) {
	algos := []Algorithm{
		NewHypercubeAdaptive(4),
		NewHypercubeHung(4),
		NewHypercubeECube(4), // no PortMask: covered as the non-implementor control
		NewMeshAdaptive(4, 4),
		NewMeshAdaptive(3, 3, 3),
		NewMeshAdaptive(3, 4, 2), // side-2 dimension: one port, loop path
		NewMeshAdaptive(1, 2, 3), // side-1 dimension: no port
		NewMeshTwoPhase(4, 4),
		NewMeshTwoPhase(2, 5),
		NewMeshXY(4, 4), // no PortMask
		NewTorusAdaptive(4, 4),
		NewTorusAdaptive(3, 5),
		NewTorusAdaptive(3, 3, 3),
		NewShuffleExchangeAdaptive(4), // dims 4 and 6 have degenerate cycles
		NewShuffleExchangeAdaptive(6),
		NewShuffleExchangeStatic(4),
		NewShuffleExchangeEager(5),
		NewCCCAdaptive(3),
		NewCCCAdaptive(4),
		NewCCCStatic(3),
	}
	for _, a := range algos {
		a := a
		t.Run(a.Name()+"/"+a.Topology().Name(), func(t *testing.T) {
			pmr, ok := a.(PortMaskRouter)
			if !ok {
				switch a.(type) {
				case *HypercubeECube, *MeshXY:
					t.Skip("oblivious baseline: no PortMask by design")
				}
				t.Fatalf("%s does not implement PortMaskRouter", a.Name())
			}
			topo := a.Topology()
			n := int32(topo.Nodes())
			buf := make([]Move, 0, 64)
			accepted, declined := 0, 0
			for dst := int32(0); dst < n; dst++ {
				visited := make(map[maskState]bool)
				var stack []maskState
				push := func(s maskState) {
					if !visited[s] {
						visited[s] = true
						stack = append(stack, s)
					}
				}
				for src := int32(0); src < n; src++ {
					class, work := a.Inject(src, dst)
					push(maskState{src, class, work})
				}
				for len(stack) > 0 {
					s := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					want := a.Candidates(s.node, s.class, s.work, dst, buf[:0])
					if checkMaskState(t, a, pmr, s.node, s.class, s.work, dst, want) {
						accepted++
					} else {
						declined++
					}
					for i := range want {
						if want[i].Deliver {
							continue
						}
						push(maskState{want[i].Node, want[i].Class, want[i].Work})
					}
				}
			}
			if accepted == 0 {
				t.Fatalf("%s: PortMask accepted no reachable state", a.Name())
			}
			t.Logf("%s: %d states accepted, %d declined", a.Name(), accepted, declined)
		})
	}
}

// TestHypercubePortMaskMatchesCandidates exhaustively cross-checks the
// hypercube fast path over every (node, dst, class) triple — including the
// states unreachable through Candidates — at sizes the reachable-state walk
// does not cover.
func TestHypercubePortMaskMatchesCandidates(t *testing.T) {
	for _, dims := range []int{3, 5, 6} {
		h := NewHypercubeAdaptive(dims)
		var pmr PortMaskRouter = h
		n := int32(1) << dims
		buf := make([]Move, 0, dims)
		for node := int32(0); node < n; node++ {
			for dst := int32(0); dst < n; dst++ {
				for _, class := range []QueueClass{ClassA, ClassB} {
					want := h.Candidates(node, class, 0, dst, buf[:0])
					checkMaskState(t, h, pmr, node, class, 0, dst, want)
				}
			}
		}
	}
}
