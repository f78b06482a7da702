// Package exec is the executor of the simulation-as-a-service stack: it
// defines RunSpec, the one canonical, serializable description of a
// simulation run, and turns specs into engine runs. Everything that used to
// describe a run its own way — raw sim.Config assembly, routesim's flag
// wiring, the sweep's cell identities — converges here: the bench harness
// builds RunSpecs for its cells, routesim compiles one from its flags, the
// routesimd daemon accepts them as its request body, and the fingerprint a
// spec hashes to is the key of the content-addressed result store
// (internal/store).
package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/traffic"
)

// SpecVersion is the current RunSpec schema version. Version 2 splits the
// network out of the algorithm spec: "algo" carries the bare family
// ("hypercube-adaptive") and the new "topology" field the network spec
// ("hypercube:10", "graph:dragonfly:a=4,g=9"). Version-1 specs (combined
// "hypercube-adaptive:10" algos, no topology field) are accepted
// everywhere and canonicalized to v2 by Canon, so a v1 spec and its v2
// spelling are the same run under the same Fingerprint.
const SpecVersion = 2

// RunSpec is the canonical description of one simulation run — the single
// source of truth the engines, the bench harness, the sweep, and the
// routesimd HTTP API all build from. The zero value of every optional
// field selects the paper's defaults (Canon documents each). Workers is an
// execution knob, not identity: results are bit-deterministic across it
// (the engines' documented invariant), so Fingerprint deliberately
// excludes it.
type RunSpec struct {
	// V is the spec schema version; 0 is treated as the current version,
	// and v1 specs are accepted and canonicalized to v2.
	V int `json:"v"`
	// Algo is the algorithm family, e.g. "hypercube-adaptive",
	// "mesh-adaptive", "graph-adaptive", with the network named by
	// Topology. The combined v1 form ("hypercube-adaptive:10") is still
	// accepted: Canon splits it into family + implied topology.
	Algo string `json:"algo"`
	// Topology is the network spec (internal/spec topology grammar):
	// "hypercube:10", "mesh:16x16", "torus:8x8", "shuffle:5", "ccc:4", or a
	// generated irregular network such as
	// "graph:random-regular:n=256,k=4,seed=7" or "graph:dragonfly:a=4,g=9".
	// Empty with a combined v1 Algo means the topology the algo implies.
	Topology string `json:"topology,omitempty"`
	// Pattern is the traffic-pattern spec: "random", "complement",
	// "transpose", "leveled", "bit-reversal", "mesh-transpose",
	// "hotspot:<frac>". Default "random".
	Pattern string `json:"pattern,omitempty"`
	// Engine selects the simulation model: "buffered" (default, the node
	// model of Sections 6-7.1), "buffered:vct" (the same node model with
	// virtual cut-through switching [KK79]) or "atomic" (Section 2's
	// abstract queue-to-queue model).
	Engine string `json:"engine,omitempty"`
	// Policy selects among admissible moves: "first-free" (default),
	// "random", "static-first", "last-free".
	Policy string `json:"policy,omitempty"`
	// Seed makes the run reproducible; the pattern and traffic source
	// derive their seeds from it (Seed+1 and Seed+2, the bench harness's
	// long-standing convention).
	Seed int64 `json:"seed,omitempty"`
	// Inject selects the injection model: "static" (default) or "dynamic".
	Inject string `json:"inject,omitempty"`
	// Traffic selects the dynamic traffic model (internal/spec traffic
	// grammar): "bernoulli" (default), "mmpp:on=..,off=..,p10=..,p01=..",
	// "onoff:hi=..,lo=..,period=..,on=..", or "trace:<path>". The generative
	// models require Inject "dynamic"; trace replay works with either
	// injection plan. Rate parameters documented as defaulting do so from
	// Lambda.
	Traffic string `json:"traffic,omitempty"`
	// Packets is the static model's packets per node (default 1).
	Packets int `json:"packets,omitempty"`
	// Lambda is the dynamic model's per-cycle injection probability
	// (default 1, the paper's λ=1).
	Lambda float64 `json:"lambda,omitempty"`
	// Warmup and Measure are the dynamic model's window (defaults 500 and
	// 1500, the paper's Section 7.1 protocol).
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// MaxCycles bounds a static run (default 10,000,000).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// QueueCap is the central-queue capacity (default 5, the paper's value).
	QueueCap int `json:"queue_cap,omitempty"`
	// Faults is a fault-schedule spec in the fault.ParseSpec grammar, e.g.
	// "links:0.05@0,node:3@100+50". Empty means no faults.
	Faults string `json:"faults,omitempty"`
	// HopBudget bounds fault-misroute detours; 0 selects the plan default.
	HopBudget int `json:"hop_budget,omitempty"`
	// Workers shards the buffered engine across goroutines. Results are
	// bit-identical for any value, so it is excluded from Fingerprint.
	// 0 means "by size": a run (Run, Compiled.Run) takes the scheduler's
	// grant where one runs it, and otherwise WorkersBySize's count for its
	// network under a budget of GOMAXPROCS; Build, which runs nothing,
	// builds one worker. The atomic engine is inherently sequential:
	// Validate rejects Workers > 1 with Engine "atomic" instead of silently
	// ignoring it.
	Workers int `json:"workers,omitempty"`
}

// FieldError reports a RunSpec field that failed validation — the
// spec-level sibling of internal/spec's ParseError. Err, when non-nil,
// carries the underlying structured parse error (e.g. *spec.ParseError or
// *spec.UnknownNameError) and is exposed through Unwrap for errors.As.
type FieldError struct {
	Field  string // the RunSpec field, as its JSON name ("algo", "lambda")
	Reason string
	Err    error
}

func (e *FieldError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("runspec: field %q: %v", e.Field, e.Err)
	}
	return fmt.Sprintf("runspec: field %q: %s", e.Field, e.Reason)
}

func (e *FieldError) Unwrap() error { return e.Err }

func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Canon returns the spec with every defaulted field made explicit: V set
// to SpecVersion, engine/policy/inject/pattern names normalized, and the
// paper's default parameters filled in. Fingerprint and the daemon's
// responses always use the canonical form, so two specs that differ only
// in how they spell a default are the same run.
//
// Canon is also the v1 -> v2 rewrite: a combined v1 algo spec
// ("hypercube-adaptive:10") is split into the bare family plus the implied
// topology field ("hypercube:10"), and V 0/1 become SpecVersion. A spec
// whose explicit Topology contradicts its combined Algo is left combined
// for Validate to reject.
func (s RunSpec) Canon() RunSpec {
	c := s
	if c.V == 0 || c.V == 1 {
		c.V = SpecVersion
	}
	if family, topoSpec, err := spec.SplitAlgo(c.Algo); err == nil && topoSpec != "" {
		if c.Topology == "" || c.Topology == topoSpec {
			c.Algo, c.Topology = family, topoSpec
		}
	}
	if c.Pattern == "" {
		c.Pattern = "random"
	}
	if c.Engine == "" {
		c.Engine = "buffered"
	}
	if c.Policy == "" {
		c.Policy = "first-free"
	}
	if c.Inject == "" {
		c.Inject = "static"
	}
	switch c.Inject {
	case "static":
		if c.Packets == 0 {
			c.Packets = 1
		}
		if c.MaxCycles == 0 {
			c.MaxCycles = 10_000_000
		}
		c.Lambda, c.Warmup, c.Measure = 0, 0, 0
	case "dynamic":
		if c.Lambda == 0 {
			c.Lambda = 1
		}
		if c.Warmup == 0 {
			c.Warmup = 500
		}
		if c.Measure == 0 {
			c.Measure = 1500
		}
		if c.Traffic == "" {
			c.Traffic = "bernoulli"
		}
		c.Packets, c.MaxCycles = 0, 0
	}
	if c.QueueCap == 0 {
		c.QueueCap = 5
	}
	return c
}

// Validate checks the spec by compiling it; see Compile for the errors.
func (s RunSpec) Validate() error {
	_, err := Compile(s)
	return err
}

// Compiled is the validated, constructed form of a spec, with its topology
// generated and its algorithm, pattern, policy, traffic model and fault
// plan built. Compiling is where a spec's setup cost sits (for a generated
// graph, the generator and the all-pairs BFS), so a caller that needs more
// than one answer about a spec — the daemon wants its validity, its cost,
// whether it parallelizes, and then the run — compiles once and asks the
// Compiled. Treat it as read-only; every Run builds its own engine and
// traffic source.
type Compiled struct {
	// Spec is the canonical form (Canon) of the spec that was compiled.
	Spec RunSpec
	// Cost estimates the run's work in node-cycles for the daemon's
	// admission control and the sweep's longest-first order and worker
	// split. Only relative accuracy matters.
	Cost float64
	// Parallelizable reports whether the run's results are invariant under
	// Workers > 1 (credited algorithms and the atomic engine are not), the
	// fact the scheduler needs to decide worker grants.
	Parallelizable bool

	algo    core.Algorithm
	pat     traffic.Pattern
	policy  sim.Policy
	faults  *fault.Plan       // nil unless faults are set
	traffic *spec.TrafficSpec // nil when the spec names no traffic model
}

// Compile validates the spec and constructs everything a run of it needs.
// Errors are structured: every failure is a *FieldError naming the
// offending field, wrapping the underlying *spec.ParseError /
// *spec.UnknownNameError when the field value itself is a sub-spec.
func Compile(s RunSpec) (*Compiled, error) {
	// A combined v1 algo that contradicts an explicit topology survives
	// Canon un-split; detect the conflict against the original spec so the
	// error can name both halves.
	if family, topoSpec, err := spec.SplitAlgo(s.Algo); err == nil && topoSpec != "" && s.Topology != "" && s.Topology != topoSpec {
		return nil, fieldErr("topology", "%q conflicts with the topology %q implied by algo %q; use the bare family %q with an explicit topology",
			s.Topology, topoSpec, s.Algo, family)
	}
	c := s.Canon()
	if c.V != SpecVersion {
		return nil, fieldErr("v", "unsupported spec version %d (this build speaks %d)", c.V, SpecVersion)
	}
	if c.Algo == "" {
		return nil, fieldErr("algo", "required; e.g. %q (see AlgorithmNames)", "hypercube-adaptive:8")
	}
	family, _, err := spec.SplitAlgo(c.Algo)
	if err != nil {
		return nil, &FieldError{Field: "algo", Err: err}
	}
	if c.Topology == "" {
		return nil, fieldErr("topology", "required with bare algorithm family %q; e.g. %q, or use the combined form %q", c.Algo, "hypercube:8", c.Algo+":8")
	}
	topo, err := spec.Topology(c.Topology)
	if err != nil {
		// When the topology was implied by a combined v1 algo spec, the bad
		// value arrived through the algo field; blame what the caller wrote.
		field := "topology"
		if s.Topology == "" {
			field = "algo"
		}
		return nil, &FieldError{Field: field, Err: err}
	}
	algo, err := spec.AlgorithmOn(family, topo)
	if err != nil {
		return nil, &FieldError{Field: "algo", Err: err}
	}
	pat, err := spec.Pattern(c.Pattern, algo, c.Seed+1)
	if err != nil {
		return nil, &FieldError{Field: "pattern", Err: err}
	}
	switch c.Engine {
	case "buffered", "buffered:vct", "atomic":
	default:
		return nil, fieldErr("engine", "unknown engine %q, valid: buffered, buffered:vct (virtual cut-through, a buffered node-model option), atomic", c.Engine)
	}
	policy, err := sim.ParsePolicy(c.Policy)
	if err != nil {
		return nil, &FieldError{Field: "policy", Err: err}
	}
	switch c.Inject {
	case "static":
		if c.Packets < 1 {
			return nil, fieldErr("packets", "static injection needs packets >= 1, got %d", c.Packets)
		}
		if c.MaxCycles < 1 {
			return nil, fieldErr("max_cycles", "must be >= 1, got %d", c.MaxCycles)
		}
	case "dynamic":
		if !(c.Lambda > 0 && c.Lambda <= 1) { // rejects NaN too
			return nil, fieldErr("lambda", "must be in (0,1], got %v", c.Lambda)
		}
		if c.Warmup < 0 || c.Measure < 1 {
			return nil, fieldErr("measure", "dynamic window needs warmup >= 0 and measure >= 1, got %d/%d", c.Warmup, c.Measure)
		}
	default:
		return nil, fieldErr("inject", "unknown injection model %q, valid: static, dynamic", c.Inject)
	}
	if c.QueueCap < 1 {
		return nil, fieldErr("queue_cap", "must be >= 1, got %d", c.QueueCap)
	}
	if c.Workers < 0 {
		return nil, fieldErr("workers", "must be >= 0, got %d", c.Workers)
	}
	if c.Workers > 1 && c.Engine == "atomic" {
		return nil, fieldErr("workers",
			"the atomic engine is inherently sequential and cannot use %d workers; omit workers or use the buffered engine", c.Workers)
	}
	out := &Compiled{
		Spec:           c,
		Cost:           cost(c, algo.Topology().Nodes()),
		Parallelizable: !algo.Props().Credits && c.Engine != "atomic",
		algo:           algo,
		pat:            pat,
		policy:         policy,
	}
	if c.Traffic != "" {
		ts, err := spec.ParseTraffic(c.Traffic)
		if err != nil {
			return nil, &FieldError{Field: "traffic", Err: err}
		}
		if ts.Dynamic() && c.Inject != "dynamic" {
			return nil, fieldErr("traffic", "model %q generates dynamic traffic and needs inject \"dynamic\", got %q", ts.Kind, c.Inject)
		}
		out.traffic = ts
	}
	if c.Faults != "" {
		plan, err := fault.ParseSpec(c.Faults)
		if err != nil {
			return nil, &FieldError{Field: "faults", Err: err}
		}
		// Refuse a node or port the network does not have here and not at
		// Build. Check costs O(items); the random selections are resolved at
		// Build, after the daemon's admission check.
		if err := plan.Check(algo.Topology()); err != nil {
			return nil, &FieldError{Field: "faults", Err: err}
		}
		out.faults = plan
	}
	if c.HopBudget < 0 {
		return nil, fieldErr("hop_budget", "must be >= 0, got %d", c.HopBudget)
	}
	return out, nil
}

// Fingerprint hashes everything that determines the run's results — every
// canonical spec field but Workers, plus the build identity — into the
// store key for its result. The recipe is an explicit field-ordered string,
// so the hash is stable across JSON field reordering and Go struct changes,
// and it hashes the canonical form, so every spelling of one run (v1 or v2,
// defaults omitted or explicit) shares a key. Workers is excluded because
// results are bit-deterministic across it; buildID is included, so a
// rebuilt binary re-simulates rather than trusting results of different
// code.
func (s RunSpec) Fingerprint(buildID string) string {
	c := s.Canon()
	id := fmt.Sprintf("rs%d|algo=%s|topology=%s|pattern=%s|engine=%s|policy=%s|seed=%d|inject=%s|traffic=%s|packets=%d|lambda=%g|warmup=%d|measure=%d|maxcycles=%d|cap=%d|faults=%s|hop=%d|build=%s",
		c.V, c.Algo, c.Topology, c.Pattern, c.Engine, c.Policy, c.Seed, c.Inject, c.Traffic,
		c.Packets, c.Lambda, c.Warmup, c.Measure, c.MaxCycles, c.QueueCap, c.Faults, c.HopBudget, buildID)
	h := sha256.Sum256([]byte(id))
	return hex.EncodeToString(h[:12])
}

// Storable reports whether the spec's result may be kept under its
// Fingerprint. A trace spec may not: the fingerprint covers the trace's
// path, not its content, so a stored result would outlive a change to the
// file. A sweep asks this before Get and before Put; routesimd refuses such
// a spec outright, since its path names a file on the server.
func (s RunSpec) Storable() bool {
	model, _, _ := strings.Cut(s.Traffic, ":")
	return model != "trace"
}

// Build validates the spec and constructs the selected simulation engine,
// configured but not yet running — the spec-level replacement for
// assembling a sim.Config by hand. Use Source for the matching traffic
// source and plan, or Run to do both and execute.
func (s RunSpec) Build() (sim.Simulator, error) {
	c, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return c.Build(c.Spec.Workers, nil)
}

// Build constructs the spec's engine with the given worker count and, when
// o is non-nil, o tapping its probes. Every call returns a fresh engine.
func (c *Compiled) Build(workers int, o obs.Observer) (sim.Simulator, error) {
	return sim.NewSimulator(c.Config(workers, o))
}

// Config returns the engine kind and the sim.Config that Build hands to
// sim.NewSimulator, for a caller that sets a probe (PhaseProf) the spec
// does not carry before building the engine itself. workers is taken as
// given, 0 being the engines' one worker; a caller that wants Run's count
// for a request passes Workers(request).
func (c *Compiled) Config(workers int, o obs.Observer) (string, sim.Config) {
	kind, option, _ := strings.Cut(c.Spec.Engine, ":")
	cfg := sim.Config{
		Algorithm:  c.algo,
		QueueCap:   c.Spec.QueueCap,
		Policy:     c.policy,
		Seed:       c.Spec.Seed,
		Workers:    workers,
		Faults:     c.faults,
		HopBudget:  c.Spec.HopBudget,
		CutThrough: option == "vct",
		Observer:   o,
	}
	if c.algo.Props().Credits {
		// Credited algorithms are not worker-count deterministic and the
		// fingerprint excludes Workers, so such runs are pinned to one worker
		// (sim.Config refuses the combination).
		cfg.Workers = 1
	}
	return kind, cfg
}

// NodesPerWorker is the size rule's C: a run is given at most one worker
// per NodesPerWorker nodes. Two workers won the median at λ=0.05 and λ=1 on
// hypercubes and random-regular graphs from 1 024 nodes up and lost it on
// the 256- and 512-node hypercubes at λ=0.05, where a cycle holds too
// little work to pay for its barriers; EXPERIMENTS.md ("The worker cliff,
// measured") has the alternated pairs.
const NodesPerWorker = 512

// WorkersBySize is the one rule for a worker count nobody named: at most
// one worker per NodesPerWorker nodes, never more than budget, and exactly
// one for a run that is not parallelizable. A run with Workers 0 takes it
// with a budget of GOMAXPROCS; the sweep's and the daemon's grants are
// capped by it under their own budgets.
func WorkersBySize(nodes, budget int, parallelizable bool) int {
	if !parallelizable {
		return 1
	}
	return max(1, min(nodes/NodesPerWorker, budget))
}

// Workers resolves a worker request for a run of this spec: a run that is
// not Parallelizable gets one worker, 0 takes WorkersBySize under a budget
// of GOMAXPROCS, and any other count is honoured as given. Run resolves
// its request here, and so does routesim, which builds its engine itself.
func (c *Compiled) Workers(workers int) int {
	if workers == 0 || !c.Parallelizable {
		return WorkersBySize(c.Nodes(), runtime.GOMAXPROCS(0), c.Parallelizable)
	}
	return workers
}

// Nodes is the size of the spec's network.
func (c *Compiled) Nodes() int { return c.algo.Topology().Nodes() }

// Source validates the spec and constructs its traffic source and run
// plan, the counterpart of Build.
func (s RunSpec) Source() (sim.TrafficSource, sim.Plan, error) {
	c, err := Compile(s)
	if err != nil {
		return nil, sim.Plan{}, err
	}
	return c.Source()
}

// Source builds a fresh traffic source and the run plan. It can fail: a
// trace model opens its file here, at run time.
func (c *Compiled) Source() (sim.TrafficSource, sim.Plan, error) {
	nodes := c.Nodes()
	plan := sim.StaticPlan(c.Spec.MaxCycles)
	if c.Spec.Inject == "dynamic" {
		plan = sim.DynamicPlan(c.Spec.Warmup, c.Spec.Measure)
	}
	if c.traffic != nil {
		src, err := c.traffic.Build(c.pat, nodes, c.Spec.Lambda, c.Spec.Seed+2)
		if err != nil {
			return nil, sim.Plan{}, &FieldError{Field: "traffic", Reason: err.Error(), Err: err}
		}
		return src, plan, nil
	}
	if c.Spec.Inject == "dynamic" {
		return traffic.NewBernoulliSource(c.pat, nodes, c.Spec.Lambda, c.Spec.Seed+2), plan, nil
	}
	return traffic.NewStaticSource(c.pat, nodes, c.Spec.Packets, c.Spec.Seed+2), plan, nil
}

// cost is the work estimate behind Compiled.Cost for a canonical spec on a
// network of the given size. Dynamic runs simulate exactly warmup+measure
// cycles over all nodes; static runs drain, so their work tracks the total
// hop count, packets times a diameter of ⌈log₂ nodes⌉, rather than the
// cycle count.
func cost(c RunSpec, nodes int) float64 {
	if c.Inject == "dynamic" {
		return float64(nodes) * float64(c.Warmup+c.Measure)
	}
	diam := 1
	for 1<<diam < nodes {
		diam++
	}
	return float64(nodes) * float64(c.Packets) * float64(diam)
}
