package fault

import (
	"sort"
	"testing"

	"repro/internal/topology"
)

func TestCompileLinkKillsBothDirections(t *testing.T) {
	topo := topology.NewHypercube(3)
	var p Plan
	p.FailLink(0, 1, 10, Forever)
	sched, err := p.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 2 {
		t.Fatalf("expected 2 down events (both directions), got %+v", sched.Events)
	}
	// Port 1 of node 0 leads to node 2; the reverse direction must die too.
	want := map[[2]int32]bool{{0, 1}: true, {2, 1}: true}
	for _, ev := range sched.Events {
		if ev.Up || ev.At != 10 {
			t.Errorf("unexpected event %+v", ev)
		}
		delete(want, [2]int32{ev.Node, int32(ev.Port)})
	}
	if len(want) != 0 {
		t.Errorf("missing down events for %v", want)
	}
}

func TestCompileDurationExpandsToRevive(t *testing.T) {
	topo := topology.NewHypercube(3)
	var p Plan
	p.FailNode(5, 100, 50)
	sched, err := p.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 2 {
		t.Fatalf("expected down+up events, got %+v", sched.Events)
	}
	down, up := sched.Events[0], sched.Events[1]
	if down.Up || down.At != 100 || down.Node != 5 || down.Port >= 0 {
		t.Errorf("bad down event %+v", down)
	}
	if !up.Up || up.At != 150 || up.Node != 5 || up.Port >= 0 {
		t.Errorf("bad up event %+v", up)
	}
}

func TestCompileEventsSorted(t *testing.T) {
	topo := topology.NewHypercube(4)
	var p Plan
	p.FailNode(1, 300, Forever)
	p.FailLink(2, 0, 5, 100)
	p.FailRandomLinks(0.2, 7, 50, Forever)
	sched, err := p.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(sched.Events, func(i, j int) bool {
		return sched.Events[i].At < sched.Events[j].At
	}) {
		t.Errorf("events not sorted by cycle: %+v", sched.Events)
	}
}

func TestCompileRandomLinksDeterministic(t *testing.T) {
	topo := topology.NewHypercube(6)
	mk := func(seed int64) []Event {
		var p Plan
		p.FailRandomLinks(0.1, seed, 0, Forever)
		sched, err := p.Compile(topo)
		if err != nil {
			t.Fatal(err)
		}
		return sched.Events
	}
	a, b := mk(3), mk(3)
	if len(a) == 0 {
		t.Fatal("10% of a dim-6 hypercube's links selected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed selected %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := mk(4); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds selected identical link sets")
		}
	}
}

func TestCompileValidation(t *testing.T) {
	topo := topology.NewHypercube(3)
	cases := []func(p *Plan){
		func(p *Plan) { p.FailLink(99, 0, 0, Forever) },         // node out of range
		func(p *Plan) { p.FailLink(0, 7, 0, Forever) },          // port out of range
		func(p *Plan) { p.FailNode(-1, 0, Forever) },            // negative node
		func(p *Plan) { p.FailRandomLinks(1.5, 1, 0, Forever) }, // fraction > 1
		func(p *Plan) { p.FailNode(0, -5, Forever) },            // negative cycle
	}
	for i, mk := range cases {
		var p Plan
		mk(&p)
		if _, err := p.Compile(topo); err == nil {
			t.Errorf("case %d: Compile accepted an invalid plan", i)
		}
	}
}

// TestCheckRefusesWhatCompileRefuses pins Check as Compile's refusal without
// its cost: the invalid plans above fail Check, and a plan that selects every
// link of a 2^24-node network passes it without a walk over those links.
func TestCheckRefusesWhatCompileRefuses(t *testing.T) {
	topo := topology.NewHypercube(3)
	for i, mk := range []func(p *Plan){
		func(p *Plan) { p.FailLink(99, 0, 0, Forever) },
		func(p *Plan) { p.FailLink(0, 7, 0, Forever) },
		func(p *Plan) { p.FailNode(8, 0, Forever) },
		func(p *Plan) { p.FailRandomNodes(-0.5, 1, 0, Forever) },
		func(p *Plan) { p.FailRandomLinks(0.5, 1, 0, 0) },
	} {
		var p Plan
		mk(&p)
		if p.Check(topo) == nil {
			t.Errorf("case %d: Check accepted a plan Compile refuses", i)
		}
		if _, err := p.Compile(topo); err == nil {
			t.Errorf("case %d: Compile accepted an invalid plan", i)
		}
	}
	var p Plan
	p.FailRandomLinks(1, 1, 0, Forever).FailNode(1<<24-1, 0, Forever)
	if err := p.Check(topology.NewHypercube(24)); err != nil {
		t.Fatal(err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	plan, err := ParseSpec("link:0:1@50+10,node:3@100,links:0.05:7@0,nodes:0.1@20+5")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := plan.Compile(topology.NewHypercube(5))
	if err != nil {
		t.Fatal(err)
	}
	// link down+up both directions (4), node 3 down (1), plus the seeded
	// random selections (down for links, down+up for nodes).
	if len(sched.Events) < 5 {
		t.Fatalf("suspiciously few events: %+v", sched.Events)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus:1@0",    // unknown kind
		"link:0@0",     // missing port
		"link:0:1",     // missing @cycle
		"link:0:1@x",   // bad cycle
		"links:nope@0", // bad fraction
		"node:1@5+",    // empty duration
		"node:x@5",     // non-integer node
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Error("nil plan should be Empty")
	}
	p = &Plan{}
	if !p.Empty() {
		t.Error("zero plan should be Empty")
	}
	p.FailNode(0, 0, Forever)
	if p.Empty() {
		t.Error("plan with an item should not be Empty")
	}
}
