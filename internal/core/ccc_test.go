package core

import (
	"testing"

	"repro/internal/topology"
)

// TestCCCForcedCubeHop: a 0->1 correction at the current position is the
// only phase-1 candidate, and the move folds the phase change when it is
// the last one.
func TestCCCForcedCubeHop(t *testing.T) {
	c := NewCCCAdaptive(3)
	net := c.net
	// At (w=010, i=0), dst vertex 011: dimension 0 needs 0->1 and is the
	// only incorrect zero -> cube hop folding into phase 2 (dimension 1 is
	// correct, no 1->0 work) ... dst vertex 011 vs w=010: diff = 001: only
	// a 0->1 at dim 0, after which the vertex is correct -> phase 3.
	node := int32(net.NodeAt(0b010, 0))
	dst := int32(net.NodeAt(0b011, 2))
	ms := c.Candidates(node, ClassCCCP1C0, 0, dst, nil)
	if len(ms) != 1 {
		t.Fatalf("candidates = %v, want the forced cube hop", ms)
	}
	m := ms[0]
	if m.Port != topology.CCCCube || m.Node != int32(net.NodeAt(0b011, 0)) {
		t.Errorf("cube hop wrong: %+v", m)
	}
	if m.Class != ClassCCCP3C0 {
		t.Errorf("phase fold wrong: class %d, want p3c0 (vertex complete)", m.Class)
	}
}

// TestCCCRideAndDynamic: with the needed 0->1 at a later position, phase 1
// rides the ring forward and may fix a 1->0 early through the dynamic link.
func TestCCCRideAndDynamic(t *testing.T) {
	c := NewCCCAdaptive(3)
	net := c.net
	// At (w=011, i=0): dst vertex 110. Diffs: dim 0 is 1->0 (dynamic here),
	// dim 2 is 0->1 (ahead at position 2).
	node := int32(net.NodeAt(0b011, 0))
	dst := int32(net.NodeAt(0b110, 1))
	ms := c.Candidates(node, ClassCCCP1C0, 0, dst, nil)
	if len(ms) != 2 {
		t.Fatalf("candidates = %v, want ring + dynamic cube", ms)
	}
	var ride, dyn bool
	for _, m := range ms {
		switch m.Port {
		case topology.CCCRingPlus:
			ride = m.Kind == Static && m.Node == int32(net.NodeAt(0b011, 1))
		case topology.CCCCube:
			dyn = m.Kind == Dynamic && m.Node == int32(net.NodeAt(0b010, 0))
		}
	}
	if !ride || !dyn {
		t.Errorf("missing candidates: %v", ms)
	}
	// The static ablation drops the dynamic link.
	ms2 := NewCCCStatic(3).Candidates(node, ClassCCCP1C0, 0, dst, nil)
	if len(ms2) != 1 || ms2[0].Port != topology.CCCRingPlus {
		t.Errorf("static variant candidates = %v", ms2)
	}
}

// TestCCCDateline: the ring edge entering position 0 switches the channel.
func TestCCCDateline(t *testing.T) {
	c := NewCCCAdaptive(4)
	net := c.net
	mv := ringMove(c, int32(net.NodeAt(5, 3)), ClassCCCP2C0, ClassCCCP2C0)
	if mv.Node != int32(net.NodeAt(5, 0)) || mv.Class != ClassCCCP2C1 {
		t.Errorf("dateline crossing: %+v", mv)
	}
	mv = ringMove(c, int32(net.NodeAt(5, 1)), ClassCCCP2C0, ClassCCCP2C1)
	if mv.Node != int32(net.NodeAt(5, 2)) || mv.Class != ClassCCCP2C1 {
		t.Errorf("channel must persist off the dateline: %+v", mv)
	}
}

// TestCCCInjectPhases: the entry class reflects the remaining work.
func TestCCCInjectPhases(t *testing.T) {
	c := NewCCCAdaptive(3)
	net := c.net
	cases := []struct {
		srcW, dstW int
		want       QueueClass
	}{
		{0b001, 0b011, ClassCCCP1C0}, // needs a 0->1
		{0b011, 0b001, ClassCCCP2C0}, // only 1->0
		{0b011, 0b011, ClassCCCP3C0}, // vertex correct, align only
	}
	for _, tc := range cases {
		src := int32(net.NodeAt(tc.srcW, 0))
		dst := int32(net.NodeAt(tc.dstW, 2))
		if got, _ := c.Inject(src, dst); got != tc.want {
			t.Errorf("Inject(w%03b->w%03b) = %d, want %d", tc.srcW, tc.dstW, got, tc.want)
		}
	}
}

// TestCCCAlignmentPhase: with the vertex correct, phase 3 rides forward to
// the destination position only.
func TestCCCAlignmentPhase(t *testing.T) {
	c := NewCCCAdaptive(4)
	net := c.net
	node := int32(net.NodeAt(9, 1))
	dst := int32(net.NodeAt(9, 3))
	ms := c.Candidates(node, ClassCCCP3C0, 0, dst, nil)
	if len(ms) != 1 || ms[0].Port != topology.CCCRingPlus || ms[0].Node != int32(net.NodeAt(9, 2)) {
		t.Fatalf("alignment candidates = %v", ms)
	}
	// At the destination node itself: deliver.
	ms = c.Candidates(dst, ClassCCCP3C0, 0, dst, nil)
	if len(ms) != 1 || !ms[0].Deliver {
		t.Fatalf("delivery candidates = %v", ms)
	}
}

// TestCCCHopBound: the 4n bound holds with slack on full all-pairs walks
// (the walks themselves run in the shared core tests; here we pin the
// constant).
func TestCCCHopBound(t *testing.T) {
	c := NewCCCAdaptive(5)
	if got := c.MaxHops(0, 1); got != 20 {
		t.Errorf("MaxHops = %d, want 4n = 20", got)
	}
}

// ringMove is the forward ring step of the given phase as a Move.
func ringMove(c *CCCAdaptive, node int32, base, cur QueueClass) Move {
	return Move{
		Node: int32(c.net.Neighbor(int(node), topology.CCCRingPlus)), Port: topology.CCCRingPlus,
		Class: c.ringClass(node, base, cur),
	}
}
