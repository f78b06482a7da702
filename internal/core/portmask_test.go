package core

import (
	"fmt"
	"testing"
)

// plainMoves reports whether a candidate set is plain: only remote,
// uncredited moves, the sets PortMask must report true for.
func plainMoves(moves []Move) bool {
	for i := range moves {
		m := &moves[i]
		if m.Deliver || m.Port == PortInternal || m.Credit != 0 {
			return false
		}
	}
	return true
}

// checkMaskState cross-checks the set PortMask states, as Candidates lists
// it, against the reference statement want in one state.
func checkMaskState(t *testing.T, a Algorithm, node int32, class QueueClass, work uint32, dst int32, want []Move) {
	t.Helper()
	var pm PortMasks
	plain := a.PortMask(node, class, work, dst, &pm)
	ctx := func() string {
		return fmt.Sprintf("%s node=%d dst=%d class=%d work=%#x", a.Name(), node, dst, class, work)
	}
	if plain != plainMoves(want) {
		t.Fatalf("%s: PortMask reports plain=%v for moves %v", ctx(), plain, want)
	}
	if !pm.Deliver {
		// Disjointness invariant under the active encoding.
		seen := uint64(0)
		masks := []uint64{pm.Dyn, pm.StaticMask}
		if !pm.PerPort {
			masks = []uint64{pm.Dyn, pm.Static[0], pm.Static[1], pm.Static[2], pm.Static[3]}
		}
		for _, m := range masks {
			if seen&m != 0 {
				t.Fatalf("%s: overlapping masks %+v", ctx(), pm)
			}
			seen |= m
		}
	}
	got := Candidates(a, node, class, work, dst, nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d mask moves %v, %d reference moves %v", ctx(), len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s move %d: mask %+v != reference %+v", ctx(), i, got[i], want[i])
		}
	}
}

// maskState is a routing state as the engines see it: a packet in queue
// (node, class) with scratch work. The destination is fixed per walk.
type maskState struct {
	node  int32
	class QueueClass
	work  uint32
}

// TestPortMaskMatchesCandidatesReachable holds every algorithm constructor
// (including the ablation variants and the oblivious baselines) to its
// reference statement: walk every (class, work) state reachable from every
// Inject result, and in each state require the set PortMask states, listed
// by Candidates, to reproduce the reference move by move, and PortMask to
// report it plain exactly when it has only remote, uncredited moves. The
// engines run the masks and the QDG verifier certifies the listing, so this
// is what ties both to the paper's rules. The hypercube entries check the
// mesh schemes' bit path (every side 2) against the per-dimension loop of
// the reference; the other meshes check the loop path.
func TestPortMaskMatchesCandidatesReachable(t *testing.T) {
	algos := []Algorithm{
		NewHypercubeAdaptive(4),
		NewHypercubeHung(4),
		NewHypercubeECube(4),
		NewMeshAdaptive(4, 4),
		NewMeshAdaptive(3, 3, 3),
		NewMeshAdaptive(3, 4, 2), // side-2 dimension: one port, loop path
		NewMeshAdaptive(1, 2, 3), // side-1 dimension: no port
		NewMeshTwoPhase(4, 4),
		NewMeshTwoPhase(2, 5),
		NewMeshXY(4, 4),
		NewTorusAdaptive(4, 4),
		NewTorusAdaptive(3, 5),
		NewTorusAdaptive(3, 3, 3),
		NewShuffleExchangeAdaptive(4), // dims 4 and 6 have degenerate cycles
		NewShuffleExchangeAdaptive(6),
		NewShuffleExchangeStatic(4),
		NewShuffleExchangeEager(5),
		NewShuffleExchangeEager(6),
		NewCCCAdaptive(3),
		NewCCCAdaptive(4),
		NewCCCStatic(3),
	}
	for _, a := range algos {
		a := a
		t.Run(a.Name()+"/"+a.Topology().Name(), func(t *testing.T) {
			topo := a.Topology()
			n := int32(topo.Nodes())
			buf := make([]Move, 0, 64)
			plain, special := 0, 0
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
					want := refCandidates(a, s.node, s.class, s.work, dst, buf[:0])
					checkMaskState(t, a, s.node, s.class, s.work, dst, want)
					if plainMoves(want) {
						plain++
					} else {
						special++
					}
					for i := range want {
						if want[i].Deliver {
							continue
						}
						push(maskState{want[i].Node, want[i].Class, want[i].Work})
					}
				}
			}
			if plain == 0 {
				t.Fatalf("%s: no reachable state is plain", a.Name())
			}
			t.Logf("%s: %d plain states, %d with delivery, internal or credited moves", a.Name(), plain, special)
		})
	}
}

// TestHypercubePortMaskMatchesCandidates exhaustively cross-checks the
// hypercube masks over every (node, dst, class) triple — including the
// states unreachable from an injection — at sizes the reachable-state walk
// does not cover.
func TestHypercubePortMaskMatchesCandidates(t *testing.T) {
	for _, dims := range []int{3, 5, 6} {
		h := NewHypercubeAdaptive(dims)
		n := int32(1) << dims
		buf := make([]Move, 0, dims)
		for node := int32(0); node < n; node++ {
			for dst := int32(0); dst < n; dst++ {
				for _, class := range []QueueClass{ClassA, ClassB} {
					want := refCandidates(h, node, class, 0, dst, buf[:0])
					checkMaskState(t, h, node, class, 0, dst, want)
				}
			}
		}
	}
}
