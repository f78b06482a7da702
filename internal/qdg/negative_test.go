package qdg

import (
	"errors"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// The verifier is only trustworthy if it rejects broken designs. These
// deliberately flawed algorithms each violate one of the Section 2
// conditions and must fail the corresponding check.

// cyclicStatic routes around a ring with a single static class and no
// dateline: a textbook static QDG cycle.
type cyclicStatic struct {
	core.Derived
	torus *topology.Torus
}

func newCyclicStatic(torus *topology.Torus) *cyclicStatic {
	c := &cyclicStatic{torus: torus}
	c.Derived = core.Derive(c)
	return c
}

func (c *cyclicStatic) Name() string                                    { return "broken-cyclic-static" }
func (c *cyclicStatic) Topology() topology.Topology                     { return c.torus }
func (c *cyclicStatic) NumClasses() int                                 { return 1 }
func (c *cyclicStatic) ClassName(core.QueueClass) string                { return "q" }
func (c *cyclicStatic) Props() core.Props                               { return core.Props{} }
func (c *cyclicStatic) MaxHops(src, dst int32) int                      { return c.torus.Nodes() }
func (c *cyclicStatic) Inject(src, dst int32) (core.QueueClass, uint32) { return 0, 0 }

func (c *cyclicStatic) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	*pm = core.PortMasks{PerPort: true, StaticMask: 1}
	return true
}

func TestVerifierRejectsStaticCycle(t *testing.T) {
	g, err := Build(newCyclicStatic(topology.NewTorus(5)))
	if err != nil {
		t.Fatal(err)
	}
	err = g.CheckStaticStructure()
	if err == nil {
		t.Fatal("static ring certified")
	}
	if !strings.Contains(err.Error(), "ring") && !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected diagnosis: %v", err)
	}
	if err := g.CheckStaticAcyclic(); err == nil {
		t.Fatal("CheckStaticAcyclic missed the ring")
	}
}

// noEscape is a hypercube scheme whose packets, once every remaining
// correction is 1->0, are offered only *dynamic* moves: the Section 2
// escape condition is violated even though every individual move is fine.
type noEscape struct {
	core.Derived
	cube *topology.Mesh
}

func (n *noEscape) Name() string                                    { return "broken-no-escape" }
func (n *noEscape) Topology() topology.Topology                     { return n.cube }
func (n *noEscape) NumClasses() int                                 { return 1 }
func (n *noEscape) ClassName(core.QueueClass) string                { return "q" }
func (n *noEscape) Props() core.Props                               { return core.Props{} }
func (n *noEscape) MaxHops(src, dst int32) int                      { return n.cube.Dims() }
func (n *noEscape) Inject(src, dst int32) (core.QueueClass, uint32) { return 0, 0 }

func (n *noEscape) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	if node == dst {
		pm.Deliver = true
		return false
	}
	// All 1->0 fixes dynamic, no static fallback.
	*pm = core.PortMasks{Dyn: uint64(node &^ dst)}
	pm.Static[0] = uint64(dst &^ node)
	return true
}

func TestVerifierRejectsMissingEscape(t *testing.T) {
	ne := &noEscape{cube: topology.NewHypercube(3)}
	ne.Derived = core.Derive(ne)
	g, err := Build(ne)
	if err != nil {
		t.Fatal(err)
	}
	// A state with only 1->0 corrections has no static candidate at all:
	// both the one-step escape check and the static-progress closure must
	// reject the scheme.
	if err := g.CheckDynamicEscape(); err == nil {
		t.Error("CheckDynamicEscape accepted a scheme with dynamic-only states")
	}
	if err := g.CheckStaticProgress(); err == nil {
		t.Error("CheckStaticProgress accepted a scheme with dynamic-only states")
	}
	if err := g.Verify(); err == nil {
		t.Error("Verify accepted the broken scheme")
	}
}

// trapDoor reaches the destination statically from injection states but
// strands the states that only dynamic links create: from the "wrong side"
// queue the only static option loops between two helper classes that never
// deliver. CheckDynamicEscape (one step) passes — the trap has a static
// move — but CheckStaticProgress must catch it.
type trapDoor struct {
	core.Derived
	cube *topology.Mesh
}

func (tr *trapDoor) Name() string                                    { return "broken-trap-door" }
func (tr *trapDoor) Topology() topology.Topology                     { return tr.cube }
func (tr *trapDoor) NumClasses() int                                 { return 2 }
func (tr *trapDoor) ClassName(c core.QueueClass) string              { return [...]string{"main", "trap"}[c] }
func (tr *trapDoor) Props() core.Props                               { return core.Props{} }
func (tr *trapDoor) MaxHops(src, dst int32) int                      { return 4 * tr.cube.Dims() }
func (tr *trapDoor) Inject(src, dst int32) (core.QueueClass, uint32) { return 0, 0 }

func (tr *trapDoor) PortMask(node int32, class core.QueueClass, work uint32, dst int32, pm *core.PortMasks) bool {
	if class == 1 {
		// The trap: a static self-loop through port 0 that advances
		// bookkeeping forever without ever delivering.
		*pm = core.PortMasks{PerPort: true, StaticMask: 1, Work: work ^ 1}
		pm.PortClass[0] = 1
		return true
	}
	if node == dst {
		pm.Deliver = true
		return false
	}
	t := bits.TrailingZeros32(uint32(node ^ dst))
	*pm = core.PortMasks{PerPort: true, StaticMask: 1 << t}
	if t == 0 {
		return true // the static hop takes port 0; the door needs it free
	}
	// The dynamic door into the trap.
	pm.Dyn, pm.DynClass = 1, 1
	return true
}

func TestVerifierRejectsTrapDoor(t *testing.T) {
	tr := &trapDoor{cube: topology.NewHypercube(3)}
	tr.Derived = core.Derive(tr)
	g, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckDynamicEscape(); err != nil {
		t.Fatalf("one-step escape unexpectedly failed (the trap has static moves): %v", err)
	}
	if err := g.CheckStaticProgress(); err == nil {
		t.Error("CheckStaticProgress accepted a scheme whose dynamic states never deliver")
	}
}

// TestCycleErrorReportsPath pins the diagnostic contract: a rejected QDG
// yields a *CycleError whose Path is a genuine cycle in the static graph —
// consecutive queues on adjacent nodes, closing back on the first — with a
// matching human-readable rendering.
func TestCycleErrorReportsPath(t *testing.T) {
	torus := topology.NewTorus(5)
	g, err := Build(newCyclicStatic(torus))
	if err != nil {
		t.Fatal(err)
	}
	var ce *CycleError
	if err := g.CheckStaticAcyclic(); !errors.As(err, &ce) {
		t.Fatalf("CheckStaticAcyclic returned %T %v, want *CycleError", err, err)
	}
	if ce.Algorithm != "broken-cyclic-static" || ce.Reason == "" {
		t.Errorf("bad error header: %+v", ce)
	}
	if len(ce.Path) < 2 || len(ce.PathNames) != len(ce.Path) {
		t.Fatalf("path not populated: %+v", ce)
	}
	// The ring routes +1 in dimension 0; every consecutive pair (wrapping)
	// must be that physical step.
	for i, q := range ce.Path {
		next := ce.Path[(i+1)%len(ce.Path)]
		if int(next.Node) != torus.Neighbor(int(q.Node), 0) {
			t.Errorf("path step %d: %d -> %d is not a ring edge", i, q.Node, next.Node)
		}
	}
	if !strings.Contains(ce.Error(), " -> ") {
		t.Errorf("rendered error lacks the path: %s", ce.Error())
	}

	var ce2 *CycleError
	if err := g.CheckStaticStructure(); !errors.As(err, &ce2) {
		t.Fatalf("CheckStaticStructure returned no *CycleError")
	}
	if len(ce2.Path) == 0 {
		t.Errorf("structure check reported no path: %+v", ce2)
	}
}
