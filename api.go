// Package repro is the public facade of this reproduction of Pifarré,
// Gravano, Felperin and Sanz, "Fully-Adaptive Minimal Deadlock-Free Packet
// Routing in Hypercubes, Meshes, and Other Networks" (SPAA 1991).
//
// It re-exports the pieces a user composes:
//
//   - routing algorithms (NewAlgorithm or the core constructors),
//   - traffic patterns and injection models (NewPattern, NewStaticTraffic,
//     NewDynamicTraffic),
//   - the simulators behind the engine-agnostic Simulator API
//     (NewSimulator("buffered", cfg) for the cycle-accurate node model of
//     the paper's Sections 6-7, NewSimulator("atomic", cfg) for the
//     abstract queue-to-queue model of Section 2),
//   - the canonical RunSpec: a serializable description of a complete run
//     that validates, fingerprints and builds (RunSpec.Build, ExecuteSpec)
//     — the same currency the tables sweep, the result store and the
//     routesimd HTTP daemon trade in,
//   - the queue-dependency-graph verifier (VerifyDeadlockFree, WriteQDG),
//   - the experiment harness that regenerates the paper's Tables 1-12
//     (Tables, FindTable).
//
// See examples/quickstart for a complete end-to-end program.
package repro

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qdg"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Re-exported core types.
type (
	// Algorithm is a routing function over per-node queues (Section 2).
	Algorithm = core.Algorithm
	// Packet is a message in flight.
	Packet = core.Packet
	// Move is a candidate next placement for a packet.
	Move = core.Move
	// Props describes an algorithm's static properties.
	Props = core.Props
	// Config configures a simulator.
	Config = sim.Config
	// Metrics aggregates a run's observables (L_avg, L_max, I_r, ...).
	Metrics = sim.Metrics
	// Engine is the buffered cycle-accurate simulator (Sections 6-7).
	Engine = sim.Engine
	// AtomicEngine is the abstract queue-to-queue simulator (Section 2).
	AtomicEngine = sim.AtomicEngine
	// Simulator is the engine-agnostic run API (Run, Step, Snapshot,
	// Metrics, ...) implemented by both Engine and AtomicEngine; build one
	// with NewSimulator.
	Simulator = sim.Simulator
	// FaultPlan schedules deterministic link and node failures for a run;
	// assign one to Config.Faults and build it with the FaultPlan methods
	// (a RunSpec takes the textual form in its Faults field).
	FaultPlan = fault.Plan
	// DeadlockDump is the wait-for state captured when the deadlock watchdog
	// fires (ErrDeadlock.Dump, and the OnDeadlock observer probe).
	DeadlockDump = obs.DeadlockDump
	// TrafficSource drives packet injection.
	TrafficSource = sim.TrafficSource
	// Pattern maps sources to destinations.
	Pattern = traffic.Pattern
	// Policy selects among admissible candidate moves.
	Policy = sim.Policy
	// ErrDeadlock reports a watchdog-detected deadlock.
	ErrDeadlock = sim.ErrDeadlock
	// QueueSnapshot reports one central queue's instantaneous occupancy
	// (see Simulator.Snapshot, typically called from an Observer's OnCycle).
	QueueSnapshot = sim.QueueSnapshot
	// Observer taps a run's deliveries, cycles, and completion; attach one
	// with Config.Observer (which also enables the metrics core). See the
	// internal/obs package docs for the probe contract.
	Observer = obs.Observer
	// ObserverBase is a no-op Observer for embedding: override only the
	// probes you need.
	ObserverBase = obs.Base
	// MetricSnapshot is a merged, fixed-size snapshot of the metrics core:
	// counters, gauges, and exponential histograms at one cycle boundary.
	MetricSnapshot = obs.Snapshot
	// Plan schedules a run for Engine.Run / AtomicEngine.Run: build one
	// with StaticPlan or DynamicPlan.
	Plan = sim.Plan
	// RunResult carries a run's Metrics plus, when observability is on,
	// the final MetricSnapshot.
	RunResult = sim.RunResult
	// Sampler is the built-in queue-occupancy time-series observer.
	Sampler = obs.Sampler
	// Sample is one point of the Sampler's series.
	Sample = obs.Sample
	// LatencyObserver collects per-delivery latency statistics (mean,
	// percentiles, histograms) behind the Observer interface.
	LatencyObserver = obs.Latency
	// JSONLObserver writes the metric time series as JSON lines.
	JSONLObserver = obs.JSONLWriter
)

// Selection policies.
const (
	PolicyFirstFree   = sim.PolicyFirstFree
	PolicyRandom      = sim.PolicyRandom
	PolicyStaticFirst = sim.PolicyStaticFirst
	PolicyLastFree    = sim.PolicyLastFree
)

// The canonical RunSpec API: one serializable description of a complete
// run — algorithm, pattern, engine kind, policy, seed, injection model,
// faults — shared by the library, the tables sweep and the routesimd
// daemon. A RunSpec validates (Validate, with structured SpecFieldError
// field errors), fingerprints (Fingerprint: the content address results
// are cached under), and builds (Build: a configured Simulator).
type (
	// RunSpec is the canonical, versioned run description (internal/exec).
	RunSpec = exec.RunSpec
	// SpecResult pairs a RunSpec with the metrics it produced, plus the
	// fingerprint and build identity — the unit the result store persists.
	SpecResult = exec.Result
	// SpecFieldError reports which RunSpec field failed validation and why.
	SpecFieldError = exec.FieldError
)

// ExecuteSpec validates and runs a RunSpec to completion (or ctx
// cancellation), with an optional read-only observer tapping the run. A
// spec with Workers 0 runs on the workers its network size pays for (at
// most one per exec.NodesPerWorker nodes, up to GOMAXPROCS), and
// SpecResult.Spec.Workers records the count used. The returned
// SpecResult.Metrics is bit-deterministic for a given fingerprint, whatever
// that count.
func ExecuteSpec(ctx context.Context, s RunSpec, o Observer) (SpecResult, error) {
	return exec.Run(ctx, s, o)
}

// Metric identifiers, for indexing a MetricSnapshot's counters, gauges and
// histograms (see internal/obs for the semantics of each).
type (
	// CounterID identifies a monotonic event counter.
	CounterID = obs.CounterID
	// GaugeID identifies an instantaneous level.
	GaugeID = obs.GaugeID
	// HistID identifies an exponential-bucket histogram.
	HistID = obs.HistID
)

const (
	CInjAttempts     = obs.CInjAttempts
	CInjBackpressure = obs.CInjBackpressure
	CInjected        = obs.CInjected
	CDelivered       = obs.CDelivered
	CMoves           = obs.CMoves
	CDynamicMoves    = obs.CDynamicMoves
	CLinkTransfers   = obs.CLinkTransfers
	COutputStalls    = obs.COutputStalls
	CWaitParked      = obs.CWaitParked
	CMailPosts       = obs.CMailPosts
	CCutThrough      = obs.CCutThrough
	CMisrouted       = obs.CMisrouted
	CFaultDrops      = obs.CFaultDrops
	CInjRetries      = obs.CInjRetries

	GQueueOccupancy = obs.GQueueOccupancy
	GInFlight       = obs.GInFlight
	GMaxQueue       = obs.GMaxQueue
	GLiveNodes      = obs.GLiveNodes
	GDeadLinks      = obs.GDeadLinks
	GDeadNodes      = obs.GDeadNodes

	HLatency  = obs.HLatency
	HQueueLen = obs.HQueueLen
	HDropAge  = obs.HDropAge
)

// NewLatencyObserver returns an empty latency-collecting observer.
func NewLatencyObserver() *LatencyObserver { return obs.NewLatency() }

// NewSampler returns a queue-occupancy sampler with the given period.
func NewSampler(every int64) *Sampler { return obs.NewSampler(every) }

// NewJSONLObserver returns an observer writing one JSON line of metrics to
// w every `every` cycles, plus a final line at completion.
func NewJSONLObserver(w io.Writer, every int64) *JSONLObserver {
	return obs.NewJSONLWriter(w, every)
}

// MultiObserver composes observers into one that fans every probe out to
// each in order. Nils are dropped; a single survivor is returned unwrapped
// and zero survivors yield nil.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// StaticPlan returns a drain-to-completion plan with the given cycle
// budget (0 = unbounded) for Engine.Run.
func StaticPlan(maxCycles int64) Plan { return sim.StaticPlan(maxCycles) }

// DynamicPlan returns a fixed warmup+measure window plan for Engine.Run.
func DynamicPlan(warmup, measure int64) Plan { return sim.DynamicPlan(warmup, measure) }

// NewSimulator builds the simulation engine selected by kind — "buffered"
// (or "") for the cycle-accurate Engine, "atomic" for the AtomicEngine —
// behind the engine-agnostic Simulator API. It is the library front door:
// cfg is a plain struct literal whose unset fields keep the paper's
// defaults. A run that should be serialized, cached or served is a RunSpec
// instead (ExecuteSpec).
func NewSimulator(kind string, cfg Config) (Simulator, error) { return sim.NewSimulator(kind, cfg) }

// FaultForever marks a FaultPlan failure with no scheduled recovery.
const FaultForever = fault.Forever

// Spec grammar. Every textual spec the facade accepts is parsed by one
// grammar, documented here once; NewAlgorithm and NewPattern report
// malformed input with the same two structured error shapes — an
// *UnknownNameError when the family name is not recognized (listing the
// valid names) and a *SpecParseError when a recognized spec carries a
// malformed or out-of-range argument — and RunSpec validation wraps either
// in a *SpecFieldError naming the offending JSON field.
//
// Algorithm specs (NewAlgorithm, RunSpec.Algo) name a routing-algorithm
// family plus its network size:
//
//	hypercube-adaptive:<dims>    hypercube-hung:<dims>   hypercube-ecube:<dims>
//	mesh-adaptive:<s>x<s>[x...]  mesh-twophase:<shape>   mesh-xy:<shape>
//	torus-adaptive:<s>x<s>[x...] shuffle-adaptive:<dims> shuffle-static:<dims>
//	shuffle-eager:<dims>         ccc-adaptive:<dims>     ccc-static:<dims>
//	graph-adaptive:<generator>
//
// Topology specs (RunSpec.Topology, TopologyNames) name a network on its
// own — the v2 RunSpec separation, in which the algo field carries only the
// bare family:
//
//	hypercube:<dims>   mesh:<s>x<s>[x...]   torus:<s>x<s>[x...]
//	shuffle:<dims>     ccc:<dims>           graph:<generator>
//
// where <generator> produces an irregular network, deterministically in
// its parameters, verified strongly-connected at construction:
//
//	random-regular:n=<n>,k=<k>,seed=<seed>   dragonfly:a=<a>,g=<g>
//	hyperx:<s>x<s>[x...]                     fat-tree:leaves=<l>,spines=<s>
//
// Pattern specs (NewPattern, RunSpec.Pattern): "random", "complement",
// "transpose", "leveled", "bit-reversal", "mesh-transpose",
// "hotspot:<fraction>". Traffic specs (RunSpec.Traffic) are documented on
// that field. Fault specs (RunSpec.Faults) are a comma-separated list of:
//
//	link:<node>:<port>@<cycle>[+<dur>]   one directed link (and its reverse)
//	node:<node>@<cycle>[+<dur>]          one node with all its links
//	links:<frac>[:<seed>]@<cycle>[+<dur>]  a seeded random fraction of links
//	nodes:<frac>[:<seed>]@<cycle>[+<dur>]  a seeded random fraction of nodes
//
// Without +<dur> the failure is permanent; with it the component revives
// after dur cycles. Example: "links:0.05@0,node:3@100+50".
type (
	// SpecParseError reports a recognized spec with a malformed or
	// out-of-range argument; Spec names the offending spec as given.
	SpecParseError = spec.ParseError
	// UnknownNameError reports a spec whose family name is not recognized,
	// listing the accepted names.
	UnknownNameError = spec.UnknownNameError
	// Topology is a static interconnection network: the node/port/link
	// structure an Algorithm routes on (Algorithm.Topology).
	Topology = topology.Topology
	// GraphTopology is an arbitrary strongly-connected digraph produced by
	// a "graph:" generator spec, with a precomputed all-pairs distance
	// table.
	GraphTopology = topology.Graph
)

// AlgorithmNames lists the specs accepted by NewAlgorithm.
func AlgorithmNames() []string { return spec.AlgorithmNames() }

// TopologyNames lists the specs accepted by RunSpec.Topology.
func TopologyNames() []string { return spec.TopologyNames() }

// NewAlgorithm builds an algorithm from a textual spec such as
// "hypercube-adaptive:10", "mesh-adaptive:16x16" or
// "graph-adaptive:dragonfly:a=4,g=9" (see AlgorithmNames for the full list,
// and the Spec grammar section above). Malformed or out-of-range sizes are
// reported as errors, never panics.
func NewAlgorithm(s string) (Algorithm, error) { return spec.Algorithm(s) }

// NewPattern builds a traffic pattern from a textual spec for an algorithm's
// topology: "random", "complement", "transpose", "leveled", "bit-reversal",
// "mesh-transpose" and "hotspot:<fraction>". Hypercube-address patterns
// (complement, transpose, leveled, bit-reversal) require a power-of-two node
// count; mesh-transpose requires a square 2-dimensional mesh or torus.
func NewPattern(s string, a Algorithm, seed int64) (Pattern, error) {
	return spec.Pattern(s, a, seed)
}

// NewStaticTraffic returns the paper's static injection model: perNode
// packets at every node, destined per the pattern.
func NewStaticTraffic(p Pattern, a Algorithm, perNode int, seed int64) TrafficSource {
	return traffic.NewStaticSource(p, a.Topology().Nodes(), perNode, seed)
}

// NewDynamicTraffic returns the paper's dynamic injection model: every cycle
// each node attempts to inject with probability lambda.
func NewDynamicTraffic(p Pattern, a Algorithm, lambda float64, seed int64) TrafficSource {
	return traffic.NewBernoulliSource(p, a.Topology().Nodes(), lambda, seed)
}

// VerifyDeadlockFree builds the algorithm's queue dependency graph by
// exhaustive exploration and certifies the paper's deadlock-freedom
// conditions: the static edges form a DAG (up to certified bubble rings)
// and every dynamic link retains a static escape. A cycle the certification
// cannot discharge is reported as a *qdg.CycleError carrying the offending
// queue path (node and class, queue by queue). Exploration is exhaustive,
// so use small instances (hundreds of nodes).
func VerifyDeadlockFree(a Algorithm) error {
	g, err := qdg.Build(a)
	if err != nil {
		return err
	}
	return g.Verify()
}

// DescribeNode renders the functional router design of Section 6 for one
// node of the algorithm's network — the buffers each physical link needs,
// as drawn in the paper's Figures 4-6. Like VerifyDeadlockFree it explores
// the algorithm exhaustively, so use small instances.
func DescribeNode(a Algorithm, node int) (string, error) {
	d, err := qdg.DescribeNode(a, int32(node))
	if err != nil {
		return "", err
	}
	return d.String(), nil
}

// WriteQDG writes the algorithm's queue dependency graph in Graphviz DOT
// format (static edges solid, dynamic dashed, bubble-guarded dotted) —
// the rendering of the paper's Figures 1-3.
func WriteQDG(w io.Writer, a Algorithm) error {
	g, err := qdg.Build(a)
	if err != nil {
		return err
	}
	return g.WriteDOT(w)
}
