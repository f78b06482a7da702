// Package qdg builds and verifies queue dependency graphs (Section 2 of the
// paper). For a given Algorithm it explores every packet state reachable
// from any (source, destination) injection, projects the states onto queues
// (node, class), and records which queue-to-queue transitions the routing
// function can generate. Deadlock freedom then reduces to:
//
//  1. the static edge set forms a DAG (CheckStaticAcyclic), and
//  2. every dynamic transition leads to a state that still has a static
//     candidate — the packet always retains an escape path through the
//     underlying DAG (CheckDynamicEscape).
//
// Edges that carry a bubble guard (Credit 2) are collected separately:
// they are allowed to close static cycles because the guard keeps the
// guarded ring from ever filling completely (see the shuffle-exchange
// algorithm's documentation).
//
// The exploration is exhaustive, so it is meant for the small networks used
// by tests and by cmd/qdgviz; its cost is O(states x candidates).
package qdg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Queue identifies a vertex of the QDG: one central queue of one node.
type Queue struct {
	Node  int32
	Class core.QueueClass
}

// Edge is a directed QDG edge between two central queues.
type Edge struct {
	From, To Queue
}

// Graph is the queue dependency graph of an algorithm, annotated with the
// link kinds of Section 2.
type Graph struct {
	Algo    core.Algorithm
	Queues  []Queue
	Static  map[Edge]bool  // A_s: unguarded static edges
	Dynamic map[Edge]bool  // A_d: the added dynamic links
	Guarded map[Edge]bool  // static edges with a bubble guard (Credit 2)
	Inject  map[Queue]bool // queues that receive packets straight from injection

	index map[Queue]int
}

// state is a packet situation during exploration.
type state struct {
	node  int32
	class core.QueueClass
	work  uint32
	dst   int32
}

// Build explores the algorithm exhaustively and returns its QDG. It also
// re-verifies, state by state, the routing-function constraints: candidates
// are never empty, and every move is at most one hop away (checked against
// the topology by core's Move construction, asserted here for internal
// consistency).
func Build(a core.Algorithm) (*Graph, error) {
	g := &Graph{
		Algo:    a,
		Static:  make(map[Edge]bool),
		Dynamic: make(map[Edge]bool),
		Guarded: make(map[Edge]bool),
		Inject:  make(map[Queue]bool),
		index:   make(map[Queue]int),
	}
	n := a.Topology().Nodes()
	seen := make(map[state]bool)
	var stack []state
	push := func(s state) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			class, work := a.Inject(int32(src), int32(dst))
			g.Inject[Queue{int32(src), class}] = true
			push(state{int32(src), class, work, int32(dst)})
		}
	}
	buf := make([]core.Move, 0, 32)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.touch(Queue{s.node, s.class})
		buf = core.Candidates(a, s.node, s.class, s.work, s.dst, buf[:0])
		if len(buf) == 0 {
			return nil, fmt.Errorf("qdg: %s: empty candidate set at node=%d class=%d work=%#x dst=%d",
				a.Name(), s.node, s.class, s.work, s.dst)
		}
		for _, m := range buf {
			if m.Deliver {
				continue // delivery queues have infinite capacity: no dependency
			}
			push(state{m.Node, m.Class, m.Work, s.dst})
			from := Queue{s.node, s.class}
			to := Queue{m.Node, m.Class}
			if from == to {
				continue // in-place move: the packet keeps its own slot
			}
			g.touch(to)
			e := Edge{from, to}
			switch {
			case m.Kind == core.Dynamic:
				g.Dynamic[e] = true
			case m.Credit >= 2:
				g.Guarded[e] = true
			default:
				g.Static[e] = true
			}
		}
	}
	sort.Slice(g.Queues, func(i, j int) bool {
		a, b := g.Queues[i], g.Queues[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Class < b.Class
	})
	for i, q := range g.Queues {
		g.index[q] = i
	}
	return g, nil
}

func (g *Graph) touch(q Queue) {
	if _, ok := g.index[q]; !ok {
		g.index[q] = len(g.Queues)
		g.Queues = append(g.Queues, q)
	}
}

// CycleError reports a cycle in the queue dependency graph that the
// certification could not discharge. Path is the offending cycle as a queue
// sequence (the first vertex repeats implicitly); PathNames renders it with
// the algorithm's class names, node by node.
type CycleError struct {
	Algorithm string
	Reason    string // why the cycle is fatal
	Path      []Queue
	PathNames []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("qdg: %s: %s: %s", e.Algorithm, e.Reason, strings.Join(e.PathNames, " -> "))
}

// cycleError builds a CycleError with the path rendered.
func (g *Graph) cycleError(reason string, path []Queue) *CycleError {
	names := make([]string, len(path))
	for i, q := range path {
		names[i] = g.QueueName(q)
	}
	return &CycleError{
		Algorithm: g.Algo.Name(), Reason: reason,
		Path: append([]Queue(nil), path...), PathNames: names,
	}
}

// CheckStaticAcyclic verifies that the static edges (guarded ones included)
// form a DAG. Algorithms relying on bubble rings fail this check and must
// pass CheckStaticStructure instead; pure DAG schemes pass both. A detected
// cycle is reported as a *CycleError carrying the queue path.
func (g *Graph) CheckStaticAcyclic() error {
	cycle := findCycle(g.Queues, g.allStatic())
	if cycle == nil {
		return nil
	}
	return g.cycleError("static QDG has a cycle", cycle)
}

func (g *Graph) allStatic() map[Edge]bool {
	all := make(map[Edge]bool, len(g.Static)+len(g.Guarded))
	for e := range g.Static {
		all[e] = true
	}
	for e := range g.Guarded {
		all[e] = true
	}
	return all
}

// CheckStaticStructure is the deadlock-freedom certification for the static
// edge set, allowing bubble rings: every nontrivial strongly connected
// component of the static graph must be a certified bubble ring —
//
//   - a simple unidirectional ring (each member has exactly one static edge
//     within the component),
//   - among queues of a single class,
//   - all of whose entry edges (static edges arriving from outside the
//     component) are bubble guarded (Credit 2),
//   - with no dynamic edge and no injection landing inside it.
//
// The SCC condensation of a digraph is always acyclic, so once every
// nontrivial component is a certified ring the usual DAG induction applies
// between components, and the bubble invariant ("an entry leaves at least
// one free slot on the ring, and in-ring moves preserve occupancy") rules
// out deadlock within each ring.
func (g *Graph) CheckStaticStructure() error {
	static := g.allStatic()
	comps := sccs(g.Queues, static)
	for _, comp := range comps {
		if len(comp) == 1 {
			q := comp[0]
			if static[Edge{q, q}] {
				return fmt.Errorf("qdg: %s: static self-dependency at %s", g.Algo.Name(), g.QueueName(q))
			}
			continue
		}
		member := make(map[Queue]bool, len(comp))
		for _, q := range comp {
			member[q] = true
		}
		// Every nontrivial SCC contains a cycle; extract one so failed
		// certifications report the offending queue path, not just the
		// violated condition.
		inner := make(map[Edge]bool)
		for e := range static {
			if member[e.From] && member[e.To] {
				inner[e] = true
			}
		}
		cyc := findCycle(comp, inner)
		class := comp[0].Class
		for _, q := range comp {
			if q.Class != class {
				return g.cycleError(fmt.Sprintf("static cycle mixes classes (%s vs %s)",
					g.QueueName(comp[0]), g.QueueName(q)), cyc)
			}
			if g.Inject[q] {
				return g.cycleError(fmt.Sprintf("injection lands inside bubble ring at %s", g.QueueName(q)), cyc)
			}
			out := 0
			for e := range static {
				if e.From == q && member[e.To] {
					out++
				}
			}
			if out != 1 {
				return g.cycleError(fmt.Sprintf("static cycle is not a certified bubble ring: %s has %d internal edges",
					g.QueueName(q), out), cyc)
			}
		}
		for e := range g.Static { // unguarded entries into the ring are fatal
			if !member[e.From] && member[e.To] {
				return g.cycleError(fmt.Sprintf("unguarded entry %s into bubble ring", g.formatEdge(e)), cyc)
			}
		}
		for e := range g.Dynamic {
			if !member[e.From] && member[e.To] {
				return g.cycleError(fmt.Sprintf("dynamic entry %s into bubble ring", g.formatEdge(e)), cyc)
			}
		}
	}
	return nil
}

// CheckDynamicEscape re-verifies, for every reachable state, that each
// dynamic candidate leads to a state whose own candidate set contains a
// static move: the Section 2 condition "if q' ∈ R~(q,d) and q' ∉ R(q,d)
// then R(q',d) ≠ ∅".
func (g *Graph) CheckDynamicEscape() error {
	a := g.Algo
	n := a.Topology().Nodes()
	seen := make(map[state]bool)
	var stack []state
	push := func(s state) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			class, work := a.Inject(int32(src), int32(dst))
			push(state{int32(src), class, work, int32(dst)})
		}
	}
	buf := make([]core.Move, 0, 32)
	esc := make([]core.Move, 0, 32)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = core.Candidates(a, s.node, s.class, s.work, s.dst, buf[:0])
		for _, m := range buf {
			if m.Deliver {
				continue
			}
			push(state{m.Node, m.Class, m.Work, s.dst})
			if m.Kind != core.Dynamic {
				continue
			}
			esc = core.Candidates(a, m.Node, m.Class, m.Work, s.dst, esc[:0])
			hasStatic := false
			for _, em := range esc {
				if em.Kind == core.Static {
					hasStatic = true
					break
				}
			}
			if !hasStatic {
				return fmt.Errorf("qdg: %s: dynamic move to node=%d class=%d (dst=%d) has no static escape",
					a.Name(), m.Node, m.Class, s.dst)
			}
		}
	}
	return nil
}

// CheckStaticProgress verifies the routing-function constraint 2 of
// Section 2 in full: from *every* reachable packet state — including the
// states only dynamic links can create — a path of static moves alone leads
// to delivery. (CheckDynamicEscape is the one-step version; this is the
// closure: backward reachability from the delivering states over static
// edges must cover the whole reachable state space.)
func (g *Graph) CheckStaticProgress() error {
	a := g.Algo
	n := a.Topology().Nodes()

	// Forward exploration collecting all states and the static edges.
	seen := make(map[state]bool)
	var stack []state
	push := func(s state) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			class, work := a.Inject(int32(src), int32(dst))
			push(state{int32(src), class, work, int32(dst)})
		}
	}
	preds := make(map[state][]state) // static predecessors
	delivering := make(map[state]bool)
	buf := make([]core.Move, 0, 32)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = core.Candidates(a, s.node, s.class, s.work, s.dst, buf[:0])
		for _, m := range buf {
			if m.Deliver {
				if m.Kind == core.Static {
					delivering[s] = true
				}
				continue
			}
			ns := state{m.Node, m.Class, m.Work, s.dst}
			push(ns)
			if m.Kind == core.Static {
				preds[ns] = append(preds[ns], s)
			}
		}
	}

	// Backward reachability from the delivering states over static edges.
	ok := make(map[state]bool, len(seen))
	var frontier []state
	for s := range delivering {
		ok[s] = true
		frontier = append(frontier, s)
	}
	for len(frontier) > 0 {
		s := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, p := range preds[s] {
			if !ok[p] {
				ok[p] = true
				frontier = append(frontier, p)
			}
		}
	}
	for s := range seen {
		if !ok[s] {
			return fmt.Errorf("qdg: %s: no static-only path to delivery from node=%d class=%d work=%#x dst=%d",
				a.Name(), s.node, s.class, s.work, s.dst)
		}
	}
	return nil
}

// Verify runs the full certification: static structure (DAG up to certified
// bubble rings), the one-step dynamic-escape condition, and static-only
// progress from every reachable state.
func (g *Graph) Verify() error {
	if err := g.CheckStaticStructure(); err != nil {
		return err
	}
	if err := g.CheckDynamicEscape(); err != nil {
		return err
	}
	return g.CheckStaticProgress()
}

// Levels returns, for each queue, the length of the longest static-edge path
// from any queue with no incoming static edge — the paper's Level function
// (injection queues are outside the graph; queues entered directly from
// injection have level 0). It requires an acyclic static edge set.
func (g *Graph) Levels() (map[Queue]int, error) {
	if err := g.CheckStaticAcyclic(); err != nil {
		return nil, err
	}
	order, err := topoOrder(g.Queues, g.Static)
	if err != nil {
		return nil, err
	}
	levels := make(map[Queue]int, len(g.Queues))
	for _, q := range order {
		if _, ok := levels[q]; !ok {
			levels[q] = 0
		}
		for e := range g.Static {
			if e.From == q {
				if l := levels[q] + 1; l > levels[e.To] {
					levels[e.To] = l
				}
			}
		}
	}
	return levels, nil
}

// HasCycleWithDynamic reports whether adding the dynamic edges closes at
// least one cycle — i.e. whether the algorithm genuinely exercises the
// paper's dynamically-acyclic regime rather than being a plain DAG scheme.
func (g *Graph) HasCycleWithDynamic() bool {
	all := make(map[Edge]bool, len(g.Static)+len(g.Dynamic)+len(g.Guarded))
	for e := range g.Static {
		all[e] = true
	}
	for e := range g.Guarded {
		all[e] = true
	}
	for e := range g.Dynamic {
		all[e] = true
	}
	return findCycle(g.Queues, all) != nil
}

func (g *Graph) formatEdge(e Edge) string {
	return fmt.Sprintf("%s -> %s", g.QueueName(e.From), g.QueueName(e.To))
}

func (g *Graph) formatPath(path []Queue) string {
	s := ""
	for i, q := range path {
		if i > 0 {
			s += " -> "
		}
		s += g.QueueName(q)
	}
	return s
}

// QueueName renders a queue as "qA@5"-style text.
func (g *Graph) QueueName(q Queue) string {
	return fmt.Sprintf("%s@%d", g.Algo.ClassName(q.Class), q.Node)
}

// findCycle returns one directed cycle (as a vertex path whose first vertex
// repeats implicitly) in the given edge set, or nil if acyclic.
func findCycle(vertices []Queue, edges map[Edge]bool) []Queue {
	adj := make(map[Queue][]Queue, len(vertices))
	for e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[Queue]int, len(vertices))
	var stack []Queue
	var cycle []Queue
	var dfs func(q Queue) bool
	dfs = func(q Queue) bool {
		color[q] = gray
		stack = append(stack, q)
		for _, next := range adj[q] {
			switch color[next] {
			case gray:
				for i, v := range stack {
					if v == next {
						cycle = append([]Queue(nil), stack[i:]...)
						return true
					}
				}
			case white:
				if dfs(next) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[q] = black
		return false
	}
	for _, v := range vertices {
		if color[v] == white && dfs(v) {
			return cycle
		}
	}
	return nil
}

// sccs returns the strongly connected components of the digraph using
// Tarjan's algorithm (iteration order fixed by the vertex slice, so results
// are deterministic).
func sccs(vertices []Queue, edges map[Edge]bool) [][]Queue {
	adj := make(map[Queue][]Queue, len(vertices))
	for e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, vs := range adj {
		sort.Slice(vs, func(i, j int) bool {
			if vs[i].Node != vs[j].Node {
				return vs[i].Node < vs[j].Node
			}
			return vs[i].Class < vs[j].Class
		})
	}
	index := make(map[Queue]int, len(vertices))
	low := make(map[Queue]int, len(vertices))
	onStack := make(map[Queue]bool, len(vertices))
	var stack []Queue
	var comps [][]Queue
	counter := 0
	var strongconnect func(v Queue)
	strongconnect = func(v Queue) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []Queue
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, v := range vertices {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comps
}

// topoOrder returns a topological order of the vertices under the edge set.
func topoOrder(vertices []Queue, edges map[Edge]bool) ([]Queue, error) {
	indeg := make(map[Queue]int, len(vertices))
	adj := make(map[Queue][]Queue)
	for _, v := range vertices {
		indeg[v] = 0
	}
	for e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	var order, frontier []Queue
	for _, v := range vertices {
		if indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	for len(frontier) > 0 {
		v := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	if len(order) != len(vertices) {
		return nil, fmt.Errorf("qdg: graph is not acyclic")
	}
	return order, nil
}
