package topology

// Liveness overlays a mutable alive/dead state on an immutable Topology.
// Nodes and directed links (u, port) start alive; fault injection kills and
// revives them. Liveness itself is not safe for concurrent mutation — the
// simulator applies fault events sequentially at cycle boundaries.
type Liveness struct {
	topo      Topology
	ports     int
	nodeDead  []uint64 // bitset over nodes
	linkDead  []uint64 // bitset over node*ports directed links
	deadNodes int
	deadLinks int
}

// NewLiveness returns an all-alive liveness overlay for t.
func NewLiveness(t Topology) *Liveness {
	n, p := t.Nodes(), t.Ports()
	return &Liveness{
		topo:     t,
		ports:    p,
		nodeDead: make([]uint64, (n+63)/64),
		linkDead: make([]uint64, (n*p+63)/64),
	}
}

// NodeAlive reports whether node u is alive.
func (l *Liveness) NodeAlive(u int) bool {
	return l.nodeDead[u>>6]&(1<<(uint(u)&63)) == 0
}

// LinkAlive reports whether the directed link out of u through port p is
// alive. A link whose endpoint node is dead is still reported alive here;
// use Usable for the combined check.
func (l *Liveness) LinkAlive(u, p int) bool {
	i := u*l.ports + p
	return l.linkDead[i>>6]&(1<<(uint(i)&63)) == 0
}

// Usable reports whether the directed link (u, p) can carry traffic: the
// link itself, its source node and its destination node are all alive, and
// the port is connected.
func (l *Liveness) Usable(u, p int) bool {
	v := l.topo.Neighbor(u, p)
	return v != None && l.NodeAlive(u) && l.NodeAlive(v) && l.LinkAlive(u, p)
}

// KillNode marks node u dead. Reports whether the state changed.
func (l *Liveness) KillNode(u int) bool {
	w, b := u>>6, uint64(1)<<(uint(u)&63)
	if l.nodeDead[w]&b != 0 {
		return false
	}
	l.nodeDead[w] |= b
	l.deadNodes++
	return true
}

// ReviveNode marks node u alive again. Reports whether the state changed.
func (l *Liveness) ReviveNode(u int) bool {
	w, b := u>>6, uint64(1)<<(uint(u)&63)
	if l.nodeDead[w]&b == 0 {
		return false
	}
	l.nodeDead[w] &^= b
	l.deadNodes--
	return true
}

// KillLink marks the directed link (u, p) dead. Reports whether the state
// changed.
func (l *Liveness) KillLink(u, p int) bool {
	i := u*l.ports + p
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if l.linkDead[w]&b != 0 {
		return false
	}
	l.linkDead[w] |= b
	l.deadLinks++
	return true
}

// ReviveLink marks the directed link (u, p) alive again. Reports whether the
// state changed.
func (l *Liveness) ReviveLink(u, p int) bool {
	i := u*l.ports + p
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if l.linkDead[w]&b == 0 {
		return false
	}
	l.linkDead[w] &^= b
	l.deadLinks--
	return true
}

// DeadNodes returns the number of currently dead nodes.
func (l *Liveness) DeadNodes() int { return l.deadNodes }

// DeadLinks returns the number of currently dead directed links.
func (l *Liveness) DeadLinks() int { return l.deadLinks }

// Reset revives every node and link.
func (l *Liveness) Reset() {
	for i := range l.nodeDead {
		l.nodeDead[i] = 0
	}
	for i := range l.linkDead {
		l.linkDead[i] = 0
	}
	l.deadNodes, l.deadLinks = 0, 0
}

// LivePorts returns the bitmask of ports of u whose directed links are
// usable (connected, link alive, both endpoints alive). Ports() must be at
// most 64.
func (l *Liveness) LivePorts(u int) uint64 {
	var m uint64
	if !l.NodeAlive(u) {
		return 0
	}
	for p := 0; p < l.ports; p++ {
		if l.Usable(u, p) {
			m |= 1 << uint(p)
		}
	}
	return m
}
