// Package wormhole is a flit-level wormhole-routing simulator, the
// extension the paper points to in its introduction and conclusion ("some
// generalizations are possible for worm-hole routing on 2-dimensional tori
// [GPS91]"; [GPS91] also covers adaptive wormhole routing on hypercubes).
// [GPS91] was never published, so the adaptive schemes here follow the same
// philosophy in its established wormhole form: adaptive virtual channels
// for full minimal adaptivity plus an acyclic *escape* sub-network that a
// blocked header can always fall back to — the wormhole counterpart of the
// paper's dynamic links over a static DAG.
//
// Model: every packet is a worm of Flits flits. Each directed physical
// link carries NumVCs virtual channels, each with a small flit buffer at
// the receiving node. A worm's header allocates one virtual channel per
// hop (it may re-evaluate its adaptive choices at every hop while blocked);
// body flits stream through the allocated chain, at most one flit per
// physical link per cycle (the virtual channels multiplex the link); the
// tail releases each channel once the last flit has left it. Delivery
// consumes one flit per cycle at the destination's ejection port.
package wormhole

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// Hop is one candidate (output port, virtual channel) pair for a header.
type Hop struct {
	Port   int16  // physical output port
	VC     uint8  // virtual channel class on that link
	State  uint32 // routing state after taking the hop
	Escape bool   // belongs to the acyclic escape sub-network
}

// Route is a wormhole routing function: the per-hop candidate generator.
// Implementations must guarantee that the escape candidates alone form a
// deadlock-free (acyclic channel dependency) network reaching every
// destination, and that a header always has at least one escape candidate —
// Duato's condition, mirroring Section 2's static-escape requirement.
type Route interface {
	Name() string
	Topology() topology.Topology
	// NumVCs returns the number of virtual channels per directed link.
	NumVCs() int
	// Inject returns the initial routing state of a worm from src to dst.
	Inject(src, dst int32) uint32
	// Candidates appends the legal next hops for a header at node with the
	// given state, destined to dst. Escape hops must be marked.
	Candidates(node int32, state uint32, dst int32, buf []Hop) []Hop
	// MaxHops bounds the header's hop count (livelock check).
	MaxHops(src, dst int32) int
	// Minimal reports whether headers always take shortest paths.
	Minimal() bool
}

// Config configures the wormhole engine.
type Config struct {
	Route Route
	// Flits is the worm length in flits (default 8).
	Flits int
	// VCBuf is the per-virtual-channel flit buffer capacity (default 2).
	VCBuf int
	// Seed drives the per-node generators (header choice among free VCs).
	Seed int64
	// DeadlockWindow aborts after this many cycles without flit movement
	// while worms remain (default 1000).
	DeadlockWindow int
}

func (c *Config) fill() error {
	if c.Route == nil {
		return fmt.Errorf("wormhole: Config.Route is nil")
	}
	if c.Flits == 0 {
		c.Flits = 8
	}
	if c.Flits < 1 {
		return fmt.Errorf("wormhole: Flits must be >= 1, got %d", c.Flits)
	}
	if c.VCBuf == 0 {
		c.VCBuf = 2
	}
	if c.VCBuf < 1 {
		return fmt.Errorf("wormhole: VCBuf must be >= 1, got %d", c.VCBuf)
	}
	if c.DeadlockWindow == 0 {
		c.DeadlockWindow = 1000
	}
	return nil
}

// Metrics aggregates a wormhole run.
type Metrics struct {
	Cycles      int64
	Injected    int64 // worms that started injecting
	Delivered   int64 // worms fully consumed at their destination
	InFlight    int64
	Attempts    int64
	Successes   int64
	LatencySum  int64 // header injection start -> tail consumed, inclusive
	LatencyMax  int64
	HeaderSum   int64 // header injection start -> header at destination
	FlitMoves   int64
	EscapeAlloc int64 // channel allocations that used an escape VC
	AdaptAlloc  int64 // channel allocations that used an adaptive VC
}

// AvgLatency is the mean full-worm latency.
func (m *Metrics) AvgLatency() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.LatencySum) / float64(m.Delivered)
}

// AvgHeaderLatency is the mean header (path-setup) latency.
func (m *Metrics) AvgHeaderLatency() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.HeaderSum) / float64(m.Delivered)
}

// InjectionRate is the dynamic model's effective injection rate.
func (m *Metrics) InjectionRate() float64 {
	if m.Attempts == 0 {
		return 0
	}
	return float64(m.Successes) / float64(m.Attempts)
}

// ErrDeadlock reports a wedged wormhole network.
type ErrDeadlock struct {
	Cycle    int64
	InFlight int
	Route    string
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("wormhole: deadlock: %s made no progress by cycle %d with %d worms in flight",
		e.Route, e.Cycle, e.InFlight)
}

// vcState is one virtual channel of one directed link. Flit occupancy is
// tracked by the owning worm (worm.occ); the channel itself only records
// ownership.
type vcState struct {
	owner int32 // worm index + 1; 0 = free
}

// worm is one packet in flight.
type worm struct {
	id         int64
	src, dst   int32
	state      uint32
	injectedAt int64
	headerAt   int64 // cycle the header reached dst (-1 while routing)
	node       int32 // current header node
	hops       uint16
	atSource   int     // flits not yet injected
	consumed   int     // flits consumed at dst
	chain      []int32 // allocated VC ids, oldest first
	occ        []uint8 // flits buffered in each chain element
	tail       int     // first chain element not yet released
	done       bool
}

// TrafficSource mirrors sim.TrafficSource (duplicated to keep the packages
// independent); internal/traffic's sources satisfy both.
type TrafficSource interface {
	Wants(node int32, cycle int64) bool
	Take(node int32, cycle int64) int32
	Exhausted(node int32) bool
}

// Engine is the flit-level simulator.
type Engine struct {
	cfg   Config
	route Route
	topo  topology.Topology
	nodes int
	ports int
	vcs   int

	vc     []vcState // [(node*ports+port)*vcs + vc]
	linkRR []uint32
	rngs   []xrand.RNG

	worms   []worm
	pending []int32 // per node: waiting worm index + 1 (injection slot), 0 = none
	active  []bool
	nextID  int64
}

// NewEngine builds a wormhole engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r := cfg.Route
	t := r.Topology()
	e := &Engine{
		cfg:   cfg,
		route: r,
		topo:  t,
		nodes: t.Nodes(),
		ports: t.Ports(),
		vcs:   r.NumVCs(),
	}
	e.vc = make([]vcState, e.nodes*e.ports*e.vcs)
	e.linkRR = make([]uint32, e.nodes*e.ports)
	e.rngs = make([]xrand.RNG, e.nodes)
	e.pending = make([]int32, e.nodes)
	e.active = make([]bool, e.nodes)
	e.reset()
	return e, nil
}

func (e *Engine) reset() {
	for i := range e.vc {
		e.vc[i] = vcState{}
	}
	for i := range e.linkRR {
		e.linkRR[i] = 0
	}
	for u := range e.rngs {
		e.rngs[u] = xrand.New(e.cfg.Seed, int32(u))
		e.pending[u] = 0
		e.active[u] = true
	}
	e.worms = e.worms[:0]
	e.nextID = 0
}

func (e *Engine) vcIndex(node int32, port int16, vc uint8) int32 {
	return (node*int32(e.ports)+int32(port))*int32(e.vcs) + int32(vc)
}

// linkOf recovers the directed link id of a VC id.
func (e *Engine) linkOf(vcID int32) int32 { return vcID / int32(e.vcs) }

// RunStatic drains a finite workload; RunDynamic runs warmup+measure cycles.
func (e *Engine) RunStatic(src TrafficSource, maxCycles int64) (Metrics, error) {
	return e.run(src, 0, 0, maxCycles, true)
}

// RunDynamic simulates warmup+measure cycles of dynamic injection.
func (e *Engine) RunDynamic(src TrafficSource, warmup, measure int64) (Metrics, error) {
	return e.run(src, warmup, warmup+measure, warmup+measure, false)
}

func (e *Engine) run(src TrafficSource, measureFrom, stopAt, maxCycles int64, drain bool) (Metrics, error) {
	e.reset()
	var m Metrics
	idle := 0
	// moveInto tracks, per directed link, whether its one flit of bandwidth
	// was used this cycle.
	used := make([]int64, e.nodes*e.ports)
	var cand []Hop
	for cycle := int64(0); ; cycle++ {
		if stopAt > 0 && cycle >= stopAt {
			m.Cycles = cycle
			m.InFlight = m.Injected - m.Delivered
			return m, nil
		}
		if maxCycles > 0 && cycle > maxCycles {
			m.Cycles = cycle
			m.InFlight = m.Injected - m.Delivered
			return m, fmt.Errorf("wormhole: %s exceeded %d cycles with %d worms in flight",
				e.route.Name(), maxCycles, m.Injected-m.Delivered)
		}
		prevMoves := m.FlitMoves

		// Injection: one pending worm per node.
		for u := int32(0); int(u) < e.nodes; u++ {
			if !e.active[u] {
				continue
			}
			if src.Exhausted(u) {
				e.active[u] = false
				continue
			}
			if !src.Wants(u, cycle) {
				continue
			}
			if cycle >= measureFrom {
				m.Attempts++
			}
			if e.pending[u] != 0 {
				continue
			}
			dst := src.Take(u, cycle)
			if dst < 0 || int(dst) >= e.nodes {
				return m, fmt.Errorf("wormhole: %s: traffic source sent node %d a destination %d outside [0, %d)",
					e.route.Name(), u, dst, e.nodes)
			}
			e.nextID++
			e.worms = append(e.worms, worm{
				id: e.nextID, src: u, dst: dst, state: e.route.Inject(u, dst),
				injectedAt: cycle, headerAt: -1, node: u,
				atSource: e.cfg.Flits,
			})
			e.pending[u] = int32(len(e.worms)) // index+1
			m.Injected++
			if cycle >= measureFrom {
				m.Successes++
			}
		}

		// Header allocations: a header whose leading flit is available
		// tries to claim a free VC among its candidates. One allocation per
		// link per cycle (it consumes the link's flit slot).
		for wi := range e.worms {
			w := &e.worms[wi]
			if w.done || w.node == w.dst {
				continue
			}
			// The header flit must be available to move: either still at
			// the source (no chain yet) or buffered in the last chain VC.
			if len(w.chain) == 0 {
				if w.atSource == 0 {
					continue
				}
			} else if w.occ[len(w.chain)-1] == 0 {
				continue
			}
			cand = e.route.Candidates(w.node, w.state, w.dst, cand[:0])
			if len(cand) == 0 {
				panic(fmt.Sprintf("wormhole: %s: no candidates at node %d for %d", e.route.Name(), w.node, w.dst))
			}
			// Collect free VCs whose link still has bandwidth.
			var free []int
			hasEscape := false
			for i, h := range cand {
				id := e.vcIndex(w.node, h.Port, h.VC)
				if e.vc[id].owner == 0 && used[e.linkOf(id)] <= cycle {
					free = append(free, i)
					if h.Escape {
						hasEscape = true
					}
				}
			}
			if len(free) == 0 {
				continue
			}
			// Prefer adaptive channels when available, falling back to the
			// escape channel (Duato-style usage); pick pseudo-randomly
			// among adaptive options to spread load.
			r := &e.rngs[w.node]
			pick := -1
			var adaptive []int
			for _, i := range free {
				if !cand[i].Escape {
					adaptive = append(adaptive, i)
				}
			}
			if len(adaptive) > 0 {
				pick = adaptive[r.Intn(len(adaptive))]
			} else if hasEscape {
				for _, i := range free {
					if cand[i].Escape {
						pick = i
						break
					}
				}
			}
			if pick < 0 {
				continue
			}
			h := cand[pick]
			id := e.vcIndex(w.node, h.Port, h.VC)
			link := e.linkOf(id)
			used[link] = cycle + 1
			e.vc[id].owner = int32(wi) + 1
			if len(w.chain) == 0 {
				w.atSource--
				if e.pending[w.node] == int32(wi)+1 && w.atSource == 0 {
					e.pending[w.node] = 0
				}
			} else {
				w.occ[len(w.chain)-1]--
			}
			w.chain = append(w.chain, id)
			w.occ = append(w.occ, 1) // the header flit
			w.hops++
			w.node = int32(e.topo.Neighbor(int(w.node), int(h.Port)))
			w.state = h.State
			m.FlitMoves++
			if h.Escape {
				m.EscapeAlloc++
			} else {
				m.AdaptAlloc++
			}
			if int(w.hops) > e.route.MaxHops(w.src, w.dst) {
				panic(fmt.Sprintf("wormhole: %s: worm %d exceeded MaxHops", e.route.Name(), w.id))
			}
			if w.node == w.dst && w.headerAt < 0 {
				w.headerAt = cycle
			}
			e.releaseTail(w)
		}

		// Body flit movement: for each owned VC, move one flit from the
		// upstream element (or the source) into it, bandwidth permitting.
		for wi := range e.worms {
			w := &e.worms[wi]
			if w.done {
				continue
			}
			for k := w.tail; k < len(w.chain); k++ {
				id := w.chain[k]
				if e.vc[id].owner != int32(wi)+1 {
					continue // released
				}
				if int(w.occ[k]) >= e.cfg.VCBuf {
					continue
				}
				// A body flit is available upstream: at the source for the
				// first element, in the previous element otherwise. (The
				// header flit always sits in the last element and advances
				// only through allocation, so it is never moved here: a
				// last element at occupancy >= 1 pulls body flits behind it.)
				avail := (k == 0 && w.atSource > 0) || (k > 0 && w.occ[k-1] > 0)
				if !avail {
					continue
				}
				link := e.linkOf(id)
				if used[link] > cycle {
					continue
				}
				used[link] = cycle + 1
				if k == 0 {
					w.atSource--
					if e.pending[w.src] == int32(wi)+1 && w.atSource == 0 {
						e.pending[w.src] = 0
					}
				} else {
					w.occ[k-1]--
				}
				w.occ[k]++
				m.FlitMoves++
			}
			e.releaseTail(w)
		}

		// Delivery: one flit per cycle is consumed at the destination once
		// the header has arrived.
		for wi := range e.worms {
			w := &e.worms[wi]
			if w.done || w.node != w.dst {
				continue
			}
			last := len(w.chain) - 1
			if last < 0 {
				// Zero-hop worm (src == dst; some patterns map diagonal
				// nodes to themselves): consume straight from the source.
				if w.atSource > 0 {
					w.atSource--
					w.consumed++
					m.FlitMoves++
					if w.atSource == 0 && e.pending[w.src] == int32(wi)+1 {
						e.pending[w.src] = 0
					}
				}
			} else if w.occ[last] > 0 {
				w.occ[last]--
				w.consumed++
				m.FlitMoves++
			}
			e.releaseTail(w)
			if w.consumed == e.cfg.Flits {
				w.done = true
				m.Delivered++
				if cycle >= measureFrom {
					lat := cycle - w.injectedAt + 1
					m.LatencySum += lat
					m.HeaderSum += w.headerAt - w.injectedAt + 1
					if lat > m.LatencyMax {
						m.LatencyMax = lat
					}
				}
				if e.route.Minimal() && int(w.hops) != e.topo.Distance(int(w.src), int(w.dst)) {
					panic(fmt.Sprintf("wormhole: %s: minimal route took %d hops for distance %d",
						e.route.Name(), w.hops, e.topo.Distance(int(w.src), int(w.dst))))
				}
			}
		}

		m.Cycles = cycle + 1
		m.InFlight = m.Injected - m.Delivered
		if drain && m.InFlight == 0 && e.allExhausted(src) {
			e.compact()
			return m, nil
		}
		if m.FlitMoves == prevMoves && m.InFlight > 0 {
			idle++
			if idle >= e.cfg.DeadlockWindow {
				return m, &ErrDeadlock{Cycle: cycle, InFlight: int(m.InFlight), Route: e.route.Name()}
			}
		} else {
			idle = 0
		}
		if len(e.worms) > 4*e.nodes && int(m.InFlight) < len(e.worms)/2 {
			e.compact()
		}
	}
}

// releaseTail frees fully-drained chain elements: an element is released
// once it is empty and can never be refilled (its upstream element is
// already released, or — for the first element — the source is empty). The
// header flit keeps the last element at occupancy >= 1 until delivery
// starts, so a worm in flight never releases its own head.
func (e *Engine) releaseTail(w *worm) {
	for w.tail < len(w.chain) && w.occ[w.tail] == 0 && (w.tail > 0 || w.atSource == 0) {
		e.vc[w.chain[w.tail]].owner = 0
		w.tail++
	}
}

func (e *Engine) allExhausted(src TrafficSource) bool {
	for u := 0; u < e.nodes; u++ {
		if e.active[u] {
			if !src.Exhausted(int32(u)) {
				return false
			}
			e.active[u] = false
		}
	}
	return true
}

// compact drops completed worms to bound memory in long dynamic runs,
// remapping the owner indices of the survivors.
func (e *Engine) compact() {
	live := e.worms[:0]
	remap := make(map[int32]int32, len(e.worms))
	for wi := range e.worms {
		if !e.worms[wi].done {
			remap[int32(wi)+1] = int32(len(live)) + 1
			live = append(live, e.worms[wi])
		}
	}
	for i := range e.vc {
		if e.vc[i].owner != 0 {
			e.vc[i].owner = remap[e.vc[i].owner]
		}
	}
	for u := range e.pending {
		if e.pending[u] != 0 {
			e.pending[u] = remap[e.pending[u]]
		}
	}
	e.worms = live
}
