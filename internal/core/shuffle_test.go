package core

import (
	"testing"

	"repro/internal/topology"
)

// TestShuffleExamSchedule pins the exam bookkeeping: after k shuffles the
// exchange flips the bit that ends at final position (n - k mod n) mod n.
func TestShuffleExamSchedule(t *testing.T) {
	s := NewShuffleExchangeAdaptive(4)
	dst := int32(0b1010) // bits: d3=1 d2=0 d1=1 d0=0
	want := map[int]int{
		0: 0, // k=0 -> position 0 -> d0 = 0
		1: 1, // k=1 -> position 3 -> d3 = 1
		2: 0, // k=2 -> position 2 -> d2 = 0
		3: 1, // k=3 -> position 1 -> d1 = 1
		4: 0, // k=4 wraps to position 0
	}
	for k, w := range want {
		if got := s.examTarget(dst, k); got != w {
			t.Errorf("examTarget(k=%d) = %d, want %d", k, got, w)
		}
	}
}

// TestShuffleForcedExchange: a 0->1 correction at the examined position
// must be the only candidate in phase 1 (phase 2 cannot perform it).
func TestShuffleForcedExchange(t *testing.T) {
	s := NewShuffleExchangeAdaptive(4)
	// Node 0110 (bit0 = 0), k=0 examines final position 0; pick dst with
	// d0 = 1 so the exchange is mandatory.
	ms := s.Candidates(0b0110, ClassP1C0, shuffleWork(0, 0), 0b0001, nil)
	if len(ms) != 1 {
		t.Fatalf("candidates = %v, want exactly the forced exchange", ms)
	}
	m := ms[0]
	if m.Port != topology.ExchangePort || m.Node != 0b0111 || m.Kind != Static {
		t.Errorf("forced exchange wrong: %+v", m)
	}
	if shuffleK(m.Work) != 0 {
		t.Errorf("exchange must not advance the shuffle count: %+v", m)
	}
}

// TestShuffleDynamicExchange: a deferrable 1->0 correction offers the
// static shuffle plus the dynamic exchange.
func TestShuffleDynamicExchange(t *testing.T) {
	s := NewShuffleExchangeAdaptive(4)
	// Node 0111 (bit0 = 1), k=0 examines final position 0; dst with d0=0.
	ms := s.Candidates(0b0111, ClassP1C0, shuffleWork(0, 0), 0b0010, nil)
	if len(ms) != 2 {
		t.Fatalf("candidates = %v, want shuffle + dynamic exchange", ms)
	}
	var sawShuffle, sawDyn bool
	for _, m := range ms {
		switch m.Port {
		case topology.ShufflePort:
			sawShuffle = m.Kind == Static && shuffleK(m.Work) == 1
		case topology.ExchangePort:
			sawDyn = m.Kind == Dynamic && m.Node == 0b0110
		}
	}
	if !sawShuffle || !sawDyn {
		t.Errorf("missing candidates: %v", ms)
	}
	// The static variant must not offer the dynamic exchange.
	ms2 := NewShuffleExchangeStatic(4).Candidates(0b0111, ClassP1C0, shuffleWork(0, 0), 0b0010, nil)
	if len(ms2) != 1 || ms2[0].Port != topology.ShufflePort {
		t.Errorf("static variant candidates = %v", ms2)
	}
}

// TestShuffleDatelineChannels: the shuffle edge entering the cycle's break
// node moves the packet to channel 1; other shuffle edges preserve the
// channel.
func TestShuffleDatelineChannels(t *testing.T) {
	s := NewShuffleExchangeAdaptive(4)
	// Cycle of 0001: 0001 -> 0010 -> 0100 -> 1000 -> 0001; break node 0001.
	// From 1000 the shuffle crosses the dateline into 0001.
	mv := shuffleMove(s, 0b1000, ClassP1C0, ClassP1C0, shuffleWork(1, 0))
	if mv.Node != 0b0001 || mv.Class != ClassP1C1 {
		t.Errorf("dateline crossing: %+v", mv)
	}
	if mv.Credit != 0 {
		t.Errorf("full-length cycle crossing must not be credited: %+v", mv)
	}
	// From 0010 the shuffle stays in channel 0.
	mv = shuffleMove(s, 0b0010, ClassP1C0, ClassP1C0, shuffleWork(1, 0))
	if mv.Node != 0b0100 || mv.Class != ClassP1C0 {
		t.Errorf("in-cycle move: %+v", mv)
	}
}

// TestShuffleDegenerateCredits: in the degenerate 0101/1010 cycle the entry
// into channel 1 carries credit 2 and the in-ring continuation credit 1.
func TestShuffleDegenerateCredits(t *testing.T) {
	s := NewShuffleExchangeAdaptive(4)
	// rot(1010) = 0101 = break node: crossing. From channel 0: entry.
	entry := shuffleMove(s, 0b1010, ClassP1C0, ClassP1C0, shuffleWork(1, 0))
	if entry.Class != ClassP1C1 || entry.Credit != 2 {
		t.Errorf("degenerate entry: %+v", entry)
	}
	// Same crossing from channel 1: continuation.
	cont := shuffleMove(s, 0b1010, ClassP1C0, ClassP1C1, shuffleWork(2, 0))
	if cont.Class != ClassP1C1 || cont.Credit != 1 {
		t.Errorf("degenerate continuation: %+v", cont)
	}
	// The non-crossing edge of the degenerate cycle in channel 1 is also an
	// in-ring continuation.
	cont2 := shuffleMove(s, 0b0101, ClassP1C0, ClassP1C1, shuffleWork(2, 0))
	if cont2.Node != 0b1010 || cont2.Credit != 1 {
		t.Errorf("degenerate in-ring move: %+v", cont2)
	}
}

// TestShuffleFixedPointSpin: the rotation fixed points advance the count in
// place.
func TestShuffleFixedPointSpin(t *testing.T) {
	s := NewShuffleExchangeAdaptive(4)
	mv := shuffleMove(s, 0b0000, ClassP1C0, ClassP1C0, shuffleWork(1, 0))
	if mv.Port != PortInternal || mv.Node != 0 || shuffleK(mv.Work) != 2 {
		t.Errorf("fixed-point spin: %+v", mv)
	}
}

// TestShuffleInjectSkipsPhase1: a packet with only 1->0 corrections starts
// directly in phase 2.
func TestShuffleInjectSkipsPhase1(t *testing.T) {
	s := NewShuffleExchangeAdaptive(4)
	if c, w := s.Inject(0b1110, 0b0110); c != ClassP2C0 || shuffleKSwitch(w) != 0 {
		t.Errorf("Inject(1110->0110) = class %d work %#x", c, w)
	}
	if c, _ := s.Inject(0b0110, 0b1110); c != ClassP1C0 {
		t.Errorf("Inject(0110->1110) = class %d, want phase 1", c)
	}
}

// TestShufflePhaseChangeAtBudget: at k == n a phase-1 packet changes phase
// in place, recording the switch point.
func TestShufflePhaseChangeAtBudget(t *testing.T) {
	s := NewShuffleExchangeAdaptive(4)
	ms := s.Candidates(0b0110, ClassP1C1, shuffleWork(4, 0), 0b0011, nil)
	if len(ms) != 1 || ms[0].Port != PortInternal || ms[0].Class != ClassP2C0 {
		t.Fatalf("phase change candidates = %v", ms)
	}
	if shuffleKSwitch(ms[0].Work) != 4 {
		t.Errorf("kSwitch not recorded: %+v", ms[0])
	}
}

// TestShuffleEagerSwitch: the eager variant offers the early phase switch
// exactly when no remaining phase-1 position needs a 0->1 fix.
func TestShuffleEagerSwitch(t *testing.T) {
	e := NewShuffleExchangeEager(4)
	// Node 1111 heading to 0101: only 1->0 fixes remain; at k=1 the eager
	// switch must be offered.
	ms := e.Candidates(0b1111, ClassP1C0, shuffleWork(1, 0), 0b0101, nil)
	foundSwitch := false
	for _, m := range ms {
		if m.Port == PortInternal && m.Class == ClassP2C0 {
			foundSwitch = true
			if shuffleKSwitch(m.Work) != 1 {
				t.Errorf("eager switch kSwitch wrong: %+v", m)
			}
		}
	}
	if !foundSwitch {
		t.Fatalf("eager switch not offered: %v", ms)
	}
	// The plain adaptive variant must not offer it (node 1111 is a rotation
	// fixed point, so its shuffle step is an internal self-spin staying in
	// phase 1 — only a move into a phase-2 class would be an early switch).
	ms2 := NewShuffleExchangeAdaptive(4).Candidates(0b1111, ClassP1C0, shuffleWork(1, 0), 0b0101, nil)
	for _, m := range ms2 {
		if m.Port == PortInternal && (m.Class == ClassP2C0 || m.Class == ClassP2C1) {
			t.Errorf("non-eager variant offered an early switch: %+v", m)
		}
	}
	// With a 0->1 fix ahead the eager switch must be withheld: 0000 -> 1111
	// needs every position raised.
	ms3 := e.Candidates(0b0000, ClassP1C0, shuffleWork(1, 0), 0b1111, nil)
	for _, m := range ms3 {
		if m.Port == PortInternal && m.Class == ClassP2C0 {
			t.Errorf("eager switch offered with 0->1 work remaining: %+v", m)
		}
	}
}

// shuffleMove is the shuffle step shuffleStep states, as a Move.
func shuffleMove(s *ShuffleExchangeAdaptive, node int32, base, cur QueueClass, w uint32) Move {
	var pm PortMasks
	pm.grouped(0, 0)
	pm.special()
	s.shuffleStep(node, base, cur, w, &pm)
	if pm.Internal == 1 {
		return Move{Node: node, Port: PortInternal, Class: pm.IntClass[0], Work: pm.IntWork[0]}
	}
	return Move{
		Node: int32(s.net.RotLeft(int(node))), Port: topology.ShufflePort,
		Class: pm.StaticClass(topology.ShufflePort), Work: pm.Work, Credit: pm.Credit,
	}
}
