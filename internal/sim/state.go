package sim

import "repro/internal/core"

// State is a copy of a simulator's packets between two cycles, laid out the
// same way for both engines: Section 2's configuration of packets in queues,
// plus the buffered engine's link buffers. A nil entry is an empty slot.
type State struct {
	Cycle   int64 // cycles simulated so far
	Classes int   // the algorithm's queue classes
	// Inject holds each node's injection queue (one slot).
	Inject []*core.Packet
	// Queues holds each central queue, head first: queue node*Classes+class.
	Queues [][]core.Packet
	// Out and In hold the buffered engine's link buffers and are nil on the
	// atomic engine: entry (node*ports+port)*(Classes+1)+bc is the buffer of
	// class bc (Classes: the shared dynamic buffer) of the directed link
	// leaving node through port, Out at the sender, In at the far end.
	Out, In []*core.Packet
}

// Packets counts the packets s holds. Between cycles, Injected == Delivered +
// Dropped + Packets() holds exactly.
func (s State) Packets() int {
	n := 0
	for _, q := range s.Queues {
		n += len(q)
	}
	for _, slots := range [][]*core.Packet{s.Inject, s.Out, s.In} {
		for _, p := range slots {
			if p != nil {
				n++
			}
		}
	}
	return n
}

// State copies the central and injection queues. It must not be called while
// a cycle is in progress: call it between Step calls, after a run, or from an
// Observer's OnCycle probe.
func (k *kernel) State() State {
	s := State{Cycle: k.rs.m.Cycles, Classes: k.classes, Inject: make([]*core.Packet, k.nodes), Queues: make([][]core.Packet, len(k.qlen))}
	for qi, l := range k.qlen {
		s.Queues[qi] = make([]core.Packet, 0, l)
		for i := int32(0); i < l; i++ {
			s.Queues[qi] = append(s.Queues[qi], *k.qAt(qi, i))
		}
	}
	for u := range s.Inject {
		if k.injFull[u>>6]>>(uint(u)&63)&1 != 0 {
			p := *k.pkt(int32(u), k.injRef[u])
			s.Inject[u] = &p
		}
	}
	return s
}

// State copies the central and injection queues and the link buffers (see
// kernel.State for when it may be called).
func (e *Engine) State() State {
	s := e.kernel.State()
	s.Out, s.In = make([]*core.Packet, len(e.outFull)), make([]*core.Packet, len(e.outFull))
	for si, f := range e.outFull {
		l := si / e.bufClasses
		if f != 0 {
			p := *e.pkt(int32(l/e.ports), e.outRef[si])
			s.Out[si] = &p
		}
		if di := int(e.linkDst[l]) + si%e.bufClasses; e.linkDst[l] >= 0 && e.inFull[di] != 0 {
			p := *e.pkt(e.nbr[l], e.inRef[di])
			s.In[si] = &p
		}
	}
	return s
}
