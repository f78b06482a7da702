// Package fault implements deterministic fault injection for the simulators:
// schedulable link and node failures (fail-at-cycle, fail-for-duration, and
// probabilistic selections resolved from a seeded RNG at compile time).
//
// A Plan is a topology-independent description of what should fail and when.
// Compile resolves it against a concrete topology into a Schedule — a sorted
// list of directed-link and node down/up events — that the engines replay
// sequentially at cycle boundaries. Because probabilistic selections are
// resolved at compile time and events are applied outside the parallel
// phases, fault-enabled runs stay bit-deterministic across worker counts.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// Forever marks a failure with no scheduled recovery.
const Forever int64 = -1

type itemKind uint8

const (
	itemLink itemKind = iota
	itemNode
	itemRandLinks
	itemRandNodes
)

type item struct {
	kind itemKind
	node int
	port int
	frac float64
	seed int64
	at   int64
	dur  int64 // Forever = permanent
}

// Plan is a buildable description of failures. The zero value is an empty
// plan; a nil *Plan is treated everywhere as "no faults".
type Plan struct {
	items []item
	// HopBudget bounds the extra link traversals a packet may spend
	// misrouting around faults before it is dropped. 0 selects the engine
	// default (see sim.Config).
	HopBudget int
}

// Empty reports whether the plan schedules no failures.
func (p *Plan) Empty() bool { return p == nil || len(p.items) == 0 }

// FailLink schedules the link out of node u through port p to die at cycle
// at and stay dead for dur cycles (Forever = permanently). The reverse
// direction, when the topology has one, dies with it.
func (p *Plan) FailLink(u, port int, at, dur int64) *Plan {
	p.items = append(p.items, item{kind: itemLink, node: u, port: port, at: at, dur: dur})
	return p
}

// FailNode schedules node u to die at cycle at for dur cycles.
func (p *Plan) FailNode(u int, at, dur int64) *Plan {
	p.items = append(p.items, item{kind: itemNode, node: u, at: at, dur: dur})
	return p
}

// FailRandomLinks schedules a seeded random fraction frac of the network's
// links (undirected pairs where the topology is bidirectional) to die at
// cycle at for dur cycles. The selection depends only on (seed, topology),
// never on execution order.
func (p *Plan) FailRandomLinks(frac float64, seed int64, at, dur int64) *Plan {
	p.items = append(p.items, item{kind: itemRandLinks, frac: frac, seed: seed, at: at, dur: dur})
	return p
}

// FailRandomNodes schedules a seeded random fraction frac of the nodes to
// die at cycle at for dur cycles.
func (p *Plan) FailRandomNodes(frac float64, seed int64, at, dur int64) *Plan {
	p.items = append(p.items, item{kind: itemRandNodes, frac: frac, seed: seed, at: at, dur: dur})
	return p
}

// Event is one liveness mutation: at cycle At, the directed link (Node,
// Port) — or the whole node when Port < 0 — goes down (Up == false) or
// comes back up (Up == true).
type Event struct {
	At   int64
	Node int32
	Port int16 // < 0: whole-node event
	Up   bool
}

// Schedule is a compiled plan: events sorted by cycle, replayed in order by
// the engine's fault clock.
type Schedule struct {
	Events []Event
	// HopBudget carries the plan's misroute budget (0 = engine default).
	HopBudget int
}

// Empty reports whether the schedule contains no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Check reports the first item of the plan that Compile would refuse on
// topology t: a negative fail cycle, a non-positive duration, a fraction
// outside [0,1], or an explicit node or link that t does not have. It costs
// O(items), never a walk over the network, so a caller can refuse a bad plan
// before it pays for the probabilistic selections.
func (p *Plan) Check(t topology.Topology) error {
	if p == nil {
		return nil
	}
	n, ports := t.Nodes(), t.Ports()
	for _, it := range p.items {
		if it.at < 0 {
			return fmt.Errorf("fault: negative fail cycle %d", it.at)
		}
		if it.dur != Forever && it.dur <= 0 {
			return fmt.Errorf("fault: non-positive fail duration %d", it.dur)
		}
		switch it.kind {
		case itemLink:
			if it.node < 0 || it.node >= n || it.port < 0 || it.port >= ports {
				return fmt.Errorf("fault: link %d:%d out of range for %s", it.node, it.port, t.Name())
			}
			if t.Neighbor(it.node, it.port) == topology.None {
				return fmt.Errorf("fault: link %d:%d of %s is not connected", it.node, it.port, t.Name())
			}
		case itemNode:
			if it.node < 0 || it.node >= n {
				return fmt.Errorf("fault: node %d out of range for %s", it.node, t.Name())
			}
		case itemRandLinks, itemRandNodes:
			if it.frac < 0 || it.frac > 1 {
				what := "link"
				if it.kind == itemRandNodes {
					what = "node"
				}
				return fmt.Errorf("fault: %s fraction %g outside [0,1]", what, it.frac)
			}
		}
	}
	return nil
}

// Compile resolves the plan against a topology into a sorted Schedule.
// Explicit link failures take the reverse direction down with them when one
// exists; probabilistic selections enumerate links in canonical (node, port)
// order and draw from a splitmix64 stream seeded by the item's seed, so the
// same plan and topology always yield the same schedule.
func (p *Plan) Compile(t topology.Topology) (*Schedule, error) {
	s := &Schedule{}
	if p == nil {
		return s, nil
	}
	if err := p.Check(t); err != nil {
		return nil, err
	}
	s.HopBudget = p.HopBudget
	n, ports := t.Nodes(), t.Ports()
	// Check has vouched for every explicit node and link, and a link drawn
	// below is connected by construction.
	addLink := func(u, port int, at, dur int64) {
		v := t.Neighbor(u, port)
		s.Events = append(s.Events, Event{At: at, Node: int32(u), Port: int16(port)})
		if dur != Forever {
			s.Events = append(s.Events, Event{At: at + dur, Node: int32(u), Port: int16(port), Up: true})
		}
		if rp := t.ReversePort(u, port); rp != topology.None {
			s.Events = append(s.Events, Event{At: at, Node: int32(v), Port: int16(rp)})
			if dur != Forever {
				s.Events = append(s.Events, Event{At: at + dur, Node: int32(v), Port: int16(rp), Up: true})
			}
		}
	}
	addNode := func(u int, at, dur int64) {
		s.Events = append(s.Events, Event{At: at, Node: int32(u), Port: -1})
		if dur != Forever {
			s.Events = append(s.Events, Event{At: at + dur, Node: int32(u), Port: -1, Up: true})
		}
	}
	for _, it := range p.items {
		switch it.kind {
		case itemLink:
			addLink(it.node, it.port, it.at, it.dur)
		case itemNode:
			addNode(it.node, it.at, it.dur)
		case itemRandLinks:
			rng := xrand.New(it.seed, -2)
			for u := 0; u < n; u++ {
				for port := 0; port < ports; port++ {
					v := t.Neighbor(u, port)
					if v == topology.None {
						continue
					}
					// Count each bidirectional pair once, from its
					// lower-endpoint direction, so frac means a fraction of
					// physical links and both directions die together.
					if rp := t.ReversePort(u, port); rp != topology.None {
						if v < u || (v == u && rp < port) {
							continue
						}
					}
					if rng.Coin(it.frac) {
						addLink(u, port, it.at, it.dur)
					}
				}
			}
		case itemRandNodes:
			rng := xrand.New(it.seed, -3)
			for u := 0; u < n; u++ {
				if rng.Coin(it.frac) {
					addNode(u, it.at, it.dur)
				}
			}
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s, nil
}
