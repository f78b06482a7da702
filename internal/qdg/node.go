package qdg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
)

// NodeDesign describes the functional router design of Section 6 for one
// node: which link buffers the node actually needs, per physical port and
// direction, given the algorithm's reachable transitions. It is the textual
// rendering of the paper's Figures 4-6.
type NodeDesign struct {
	Algo core.Algorithm
	Node int32
	// OutBuffers[p] lists the output buffer labels of port p (traffic
	// leaving Node), e.g. ["qA", "qB", "dynamic"].
	OutBuffers map[int][]string
	// InBuffers[p] lists the input buffer labels for traffic arriving over
	// the reverse of port p (from Neighbor(Node, p) into Node). For
	// unidirectional links (shuffle) the key is the inbound port of the
	// sending node, offset by 1000 to keep it distinct.
	InBuffers map[int][]string
}

// DescribeNode explores every reachable transition of the algorithm and
// collects the buffers incident to the given node.
func DescribeNode(a core.Algorithm, node int32) (*NodeDesign, error) {
	d := &NodeDesign{
		Algo:       a,
		Node:       node,
		OutBuffers: make(map[int][]string),
		InBuffers:  make(map[int][]string),
	}
	t := a.Topology()
	n := t.Nodes()
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
	outSet := make(map[int]map[string]bool)
	inSet := make(map[int]map[string]bool)
	add := func(set map[int]map[string]bool, port int, label string) {
		if set[port] == nil {
			set[port] = make(map[string]bool)
		}
		set[port][label] = true
	}
	label := func(m core.Move) string {
		if m.Kind == core.Dynamic {
			return "dynamic"
		}
		return a.ClassName(m.Class)
	}
	buf := make([]core.Move, 0, 32)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = core.Candidates(a, s.node, s.class, s.work, s.dst, buf[:0])
		for _, m := range buf {
			if !m.Deliver {
				push(state{m.Node, m.Class, m.Work, s.dst})
			}
			if m.Port == core.PortInternal {
				continue
			}
			if s.node == node {
				add(outSet, int(m.Port), label(m))
			}
			if m.Node == node {
				// Traffic arriving into node: identify the inbound link by
				// the reverse port when it exists, else tag the sender port.
				rp := t.ReversePort(int(s.node), int(m.Port))
				key := 1000 + int(m.Port)
				if rp != topology.None {
					key = rp
				}
				add(inSet, key, label(m))
			}
		}
	}
	for p, set := range outSet {
		d.OutBuffers[p] = sortedKeys(set)
	}
	for p, set := range inSet {
		d.InBuffers[p] = sortedKeys(set)
	}
	return d, nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the node design as the paper's figures describe it: per
// physical link, the output and input buffers with their associated queues.
func (d *NodeDesign) String() string {
	t := d.Algo.Topology()
	var sb strings.Builder
	fmt.Fprintf(&sb, "node %d of %s under %s: %d central queues (", d.Node, t.Name(), d.Algo.Name(), d.Algo.NumClasses())
	for c := 0; c < d.Algo.NumClasses(); c++ {
		if c > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(d.Algo.ClassName(core.QueueClass(c)))
	}
	sb.WriteString(") + injection + delivery\n")
	ports := make([]int, 0, len(d.OutBuffers))
	for p := range d.OutBuffers {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	for _, p := range ports {
		fmt.Fprintf(&sb, "  port %d -> node %-6d out buffers: %s\n", p, t.Neighbor(int(d.Node), p), strings.Join(d.OutBuffers[p], ", "))
	}
	inPorts := make([]int, 0, len(d.InBuffers))
	for p := range d.InBuffers {
		inPorts = append(inPorts, p)
	}
	sort.Ints(inPorts)
	for _, p := range inPorts {
		from := "?"
		if p < 1000 {
			from = fmt.Sprint(t.Neighbor(int(d.Node), p))
		} else {
			from = fmt.Sprintf("(unidirectional, sender port %d)", p-1000)
		}
		fmt.Fprintf(&sb, "  in from %-22s in buffers: %s\n", from, strings.Join(d.InBuffers[p], ", "))
	}
	return sb.String()
}
