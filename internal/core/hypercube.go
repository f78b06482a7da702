package core

import (
	"fmt"
	"math/bits"

	"repro/internal/topology"
)

// Queue classes of the two-phase hypercube and mesh schemes.
const (
	ClassA QueueClass = 0 // phase A: descending through the hung network
	ClassB QueueClass = 1 // phase B: ascending to the destination
)

// NewHypercubeAdaptive returns the fully-adaptive minimal deadlock-free
// hypercube algorithm of Section 3 on an n-dimensional hypercube. It is the
// Section 4 mesh algorithm on the mesh whose sides are all 2: the cube is
// hung from node 0...0; phase A packets (queue q_A) correct incorrect 0s
// into 1s through static links and may additionally correct incorrect 1s
// into 0s through dynamic links whenever space is found; once no incorrect
// 0 remains a packet changes to phase B (queue q_B) and corrects the
// remaining incorrect 1s through static links.
func NewHypercubeAdaptive(dims int) *MeshAdaptive {
	return hungAdaptive("hypercube-adaptive", topology.NewHypercube(dims))
}

// NewHypercubeHung returns the underlying acyclic scheme of Section 3
// *without* dynamic links (the routing obtained by hanging the cube from
// 0...0, as in [BGSS89]/[Kon90]): phase A corrects only incorrect 0s, so
// adaptivity is limited and traffic concentrates near node 1...1. It is the
// paper's implicit ablation baseline for the dynamic links, and the mesh
// two-phase scheme on the mesh whose sides are all 2.
func NewHypercubeHung(dims int) *MeshTwoPhase {
	return hungStatic("hypercube-hung", topology.NewHypercube(dims))
}

// incorrectZeros returns the mask of dimensions where cur has a 0 that must
// become a 1 to reach dst.
func incorrectZeros(cur, dst int32) uint32 { return uint32(^cur & dst) }

// incorrectOnes returns the mask of dimensions where cur has a 1 that must
// become a 0 to reach dst.
func incorrectOnes(cur, dst int32) uint32 { return uint32(cur &^ dst) }

// HypercubeECube is the oblivious dimension-order baseline: every packet
// corrects its incorrect dimensions from low to high, with no adaptivity at
// all. Store-and-forward dimension-order routing with a single central queue
// can deadlock, so the classic hop-ordered buffer scheme ([Gun81]/[MS80]
// structured buffer pool) is used: a packet that has taken h hops occupies
// queue class h, and every hop moves it to class h+1 — the queue dependency
// graph is trivially acyclic, at the cost of dims+1 queues per node. This is
// exactly the "excessive amount of hardware" trade-off the paper criticizes,
// which makes it the fair oblivious comparator. Unlike the two schemes
// above it is not a mesh scheme on the side-2 mesh: mesh-xy there would use
// 2*dims direction classes, not dims+1 hop classes.
type HypercubeECube struct {
	Derived
	cube *topology.Mesh
}

// NewHypercubeECube returns the oblivious dimension-order hypercube baseline.
func NewHypercubeECube(dims int) *HypercubeECube {
	h := &HypercubeECube{cube: topology.NewHypercube(dims)}
	h.Derived = Derive(h)
	return h
}

func (h *HypercubeECube) Name() string                { return "hypercube-ecube" }
func (h *HypercubeECube) Topology() topology.Topology { return h.cube }
func (h *HypercubeECube) NumClasses() int             { return h.cube.Dims() + 1 }
func (h *HypercubeECube) ClassName(c QueueClass) string {
	return fmt.Sprintf("hop%d", c)
}

func (h *HypercubeECube) Props() Props { return Props{Minimal: true} }

func (h *HypercubeECube) MaxHops(src, dst int32) int {
	return h.cube.Distance(int(src), int(dst))
}

func (h *HypercubeECube) Inject(src, dst int32) (QueueClass, uint32) {
	return 0, 0
}

// PortMask offers the one move of dimension order in the per-port
// encoding: the lowest incorrect dimension, into the next hop class.
func (h *HypercubeECube) PortMask(node int32, class QueueClass, work uint32, dst int32, pm *PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	t := bits.TrailingZeros32(uint32(node ^ dst))
	pm.perPort(0)
	pm.StaticMask = 1 << uint(t)
	pm.PortClass[t] = class + 1
	return true
}
