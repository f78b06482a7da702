package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestAtomicInNeighbors: the lists wake walks are the exact inverse of the
// topology's links, self-loops dropped — on the shuffle-exchange, whose
// shuffle links are one-way (waking out-neighbors there misses the waiter),
// and on the CCC.
func TestAtomicInNeighbors(t *testing.T) {
	for _, a := range []core.Algorithm{core.NewShuffleExchangeAdaptive(6), core.NewCCCAdaptive(4)} {
		e, err := NewAtomicEngine(Config{Algorithm: a, Seed: 7, QueueCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		nodes := a.Topology().Nodes()
		e.Start(traffic.NewBernoulliSource(traffic.Random{Nodes: nodes}, nodes, 1, 99), DynamicPlan(50, 150))
		for e.inOff == nil {
			if done, err := e.Step(); done {
				t.Fatalf("%s: the run ended without parking a head (%v)", a.Name(), err)
			}
		}
		topo := a.Topology()
		want := make([][]int32, topo.Nodes())
		oneWay := false
		for u := 0; u < topo.Nodes(); u++ {
			for p := 0; p < topo.Ports(); p++ {
				v := topo.Neighbor(u, p)
				if v == topology.None || v == u {
					continue
				}
				want[v] = append(want[v], int32(u))
				back := false
				for q := 0; q < topo.Ports(); q++ {
					back = back || topo.Neighbor(v, q) == u
				}
				oneWay = oneWay || !back
			}
		}
		for v := range want {
			got := slices.Clone(e.inNbr[e.inOff[v]:e.inOff[v+1]])
			slices.Sort(got)
			slices.Sort(want[v])
			if !slices.Equal(got, want[v]) {
				t.Fatalf("%s: node %d: in-neighbors %v, want %v", a.Name(), v, got, want[v])
			}
		}
		if _, shuffle := topo.(*topology.ShuffleExchange); shuffle && !oneWay {
			t.Errorf("%s: no one-way link found: the test does not tell in- from out-neighbors", a.Name())
		}
	}
}

// TestAtomicRefusesBufferedOptions: the option that changes what the
// buffered node simulates, cut-through, is an error on the atomic engine,
// not silently ignored. Workers stays accepted because the atomic engine
// runs on one goroutine whatever it is set to, and HeadOnly because
// Section 2's Route(q) already moves only each queue's head.
func TestAtomicRefusesBufferedOptions(t *testing.T) {
	for _, tc := range []struct {
		field string // "" = accepted
		cfg   Config
	}{
		{"CutThrough", Config{CutThrough: true}},
		{"", Config{Workers: 4}},
		{"", Config{HeadOnly: true}},
	} {
		tc.cfg.Algorithm = core.NewHypercubeAdaptive(4)
		_, err := NewAtomicEngine(tc.cfg)
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: %v", tc.cfg, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), "Config."+tc.field)):
			t.Errorf("Config.%s set: err = %v, want an error naming the field", tc.field, err)
		}
		if _, err := NewEngine(tc.cfg); err != nil {
			t.Errorf("buffered engine, %+v: %v", tc.cfg, err)
		}
	}
}
