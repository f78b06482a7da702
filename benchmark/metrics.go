package main

import "fmt"

// metricDef names one metric the benchmark prints. The tables below mirror
// BENCHMARK.json at the repository root (bench_test.go holds them equal);
// they live in code as well so a child process can label its own output
// without reading a file outside its directory.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (the driver's contract), so each is defined in
// terms of "operations": a sweep cell, an exec.Run call, or an HTTP POST.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.20},
	{"node_cycles_per_s", "1/s", "higher", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p95_ms", "ms", "lower", 0.20},
}

// perLayer are the single-layer metrics of the traced pass: timing loops
// over each layer's public functions (the same in every workload's traced
// run) and figures derived from the workload's own spans and counters.
var perLayer = []metricDef{
	// internal/core
	{Name: "core.portmask_ns", Unit: "ns", Better: "lower"},
	{Name: "core.perport_portmask_ns", Unit: "ns", Better: "lower"},
	{Name: "core.candidates_ns", Unit: "ns", Better: "lower"},
	{Name: "core.graph_portmask_ns", Unit: "ns", Better: "lower"},
	{Name: "core.graph_compile_ms", Unit: "ms", Better: "lower"},
	// internal/topology
	{Name: "topology.generate_ms", Unit: "ms", Better: "lower"},
	// internal/traffic
	{Name: "traffic.bernoulli_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.bernoulli_fill_blocked_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.mmpp_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.onoff_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.scalar_wants_take_ns", Unit: "ns", Better: "lower"},
	// internal/sim, one worker
	{Name: "sim.buffered_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.static_drain_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.inject_ns_per_node_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.phase_a_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.phase_b_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.link_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.merge_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.other_ns_per_cycle", Unit: "ns", Better: "lower"},
	// internal/sim, two workers
	{Name: "sim.w2.inject_ns_per_node_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.w2.phase_a_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.w2.phase_b_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.w2.link_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.w2.merge_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.w2.other_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.w2_speedup", Unit: "x", Better: "higher"},
	{Name: "sim.w2_seq_share", Unit: "ratio", Better: "lower"},
	// internal/sim, atomic engine and construction
	{Name: "sim.atomic_ns_per_move", Unit: "ns", Better: "lower"},
	{Name: "sim.atomic_ns_per_node_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.new_engine_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.allocs_per_cycle", Unit: "count", Better: "lower"},
	// internal/obs
	{Name: "obs.metrics_overhead_pct", Unit: "%", Better: "lower"},
	// internal/exec and internal/spec
	{Name: "exec.validate_us", Unit: "us", Better: "lower"},
	{Name: "exec.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "exec.validate_graph_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.build_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.source_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.result_json_us", Unit: "us", Better: "lower"},
	{Name: "exec.setup_share", Unit: "ratio", Better: "lower"},
	// internal/store
	{Name: "store.get_hit_us", Unit: "us", Better: "lower"},
	{Name: "store.get_miss_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.open_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher"},
	// internal/sweep and internal/bench
	{Name: "sweep.buildjobs_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "sweep.sched_dispatch_us", Unit: "us", Better: "lower"},
	{Name: "bench.paper_lavg_err_pct", Unit: "%", Better: "lower"},
	// internal/daemon
	{Name: "daemon.handler_warm_us", Unit: "us", Better: "lower"},
	{Name: "daemon.handler_warm_graph_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "daemon.cold_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.requests", Unit: "count", Better: "higher"},
	{Name: "daemon.executed", Unit: "count", Better: "lower"},
	{Name: "daemon.cached", Unit: "count", Better: "higher"},
	{Name: "daemon.rejected", Unit: "count", Better: "lower"},
	// process, host and the trace itself
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "calib.ns_per_iter", Unit: "ns", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a workload run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill labels raw values with their units and checks that exactly the
// metrics of defs are present, so a forgotten or misspelt metric is a
// program error and not a silent gap in the output.
func fill(defs []metricDef, raw map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := raw[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range raw {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}
