package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sim"
)

// scale sizes the workloads. The default scale keeps the network sizes the
// issue names and shrinks cycle windows and cell counts until one round of
// each workload takes two to three seconds on the reference host, so a
// ten-second run holds several rounds and can report medians. The quick
// scale exists for bench_test.go.
type scale struct {
	name string

	sweepWarmup, sweepMeasure   int64 // dynamic window of the buffered sweeps' cells
	atomicWarmup, atomicMeasure int64 // and of atomic_tables' cells
	paperMaxN, atomicMaxN       int
	extMaxNodes                 int    // 0 = no limit on the extended suite's cells
	extSkip                     string // one extended cell left out (see defaultScale)

	cubeDim             int
	cubeWarmup, cubeRun int64 // cube_parallel: untimed warm-up cycles; cycles per timed run

	mixDim    int
	mixCycles int64

	graphSizes []int // node counts of one graph_cold round
	graphRun   int64 // measured cycles after a warm-up of half as many

	coldSpecs  int // distinct specs of one daemon_cold round
	warmSubset int // specs the warm phase cycles over, a prefix of the cold list plus its graph specs
	warmPosts  int // POSTs of one daemon_warm round
	graphSpecs int // graph specs among the cold ones
	graphNodes int

	layerDims   [3]int // hypercube dimensions of the per-layer engine runs: small, large, two-worker
	layerGraphs [2]int // node counts of the per-layer graphs: route-table decisions, generate and compile

	setupReps int           // times a pre-round set-up is repeated for its median
	loop      time.Duration // budget of one per-layer timing loop
	simCycles int64         // cycles of a per-layer engine run
	replayN   int           // entries of the store.open_replay_ms file
	calibIter int           // iterations of the calibration loop
}

var (
	defaultScale = scale{
		name:        "default",
		sweepWarmup: 75, sweepMeasure: 225,
		atomicWarmup: 50, atomicMeasure: 150,
		paperMaxN: 11, atomicMaxN: 13,
		// This one static cell (4096 nodes x 12 packets through the Candidates
		// fallback) takes as long as the other 34 cells of topology_mix
		// together; the 4096-node shuffle stays in through its dynamic cell.
		extSkip: "ext-shuffle-random-n/dims12",
		cubeDim: 12, cubeWarmup: 200, cubeRun: 1000,
		mixDim: 10, mixCycles: 500,
		graphSizes: []int{1024, 2048, 1024, 2048, 1024, 2048, 4096},
		graphRun:   60,
		coldSpecs:  120, warmSubset: 44, warmPosts: 1320, graphSpecs: 4, graphNodes: 512,
		layerDims: [3]int{10, 11, 12}, layerGraphs: [2]int{1024, 2048},
		setupReps: 21, loop: 60 * time.Millisecond, simCycles: 200, replayN: 10000, calibIter: 1 << 27,
	}
	quickScale = scale{
		name:        "quick",
		sweepWarmup: 20, sweepMeasure: 50,
		atomicWarmup: 20, atomicMeasure: 50,
		paperMaxN: 10, atomicMaxN: 10, extMaxNodes: 300,
		cubeDim: 8, cubeWarmup: 20, cubeRun: 100,
		mixDim: 6, mixCycles: 100,
		graphSizes: []int{64, 128},
		graphRun:   40,
		coldSpecs:  20, warmSubset: 11, warmPosts: 50, graphSpecs: 1, graphNodes: 64,
		layerDims: [3]int{6, 7, 8}, layerGraphs: [2]int{64, 128},
		setupReps: 2, loop: 2 * time.Millisecond, simCycles: 30, replayN: 200, calibIter: 1 << 20,
	}
)

// op is one operation of a round: a sweep cell, an exec.Run call or an HTTP
// request. A non-empty fail says why it counts in `failed`.
type op struct {
	cell       string
	wall       time.Duration
	setup      time.Duration // part of wall before the first simulated cycle, where the benchmark can see it
	nodeCycles float64       // nodes x simulated cycles the operation delivered
	digest     string        // sha256 over the simulated output; "" when there is none to compare
	golden     bool          // digest is pinned in golden.json for seed 1 (false for inputs that change per round)
	paperErr   float64       // |L_avg - paper| / paper, or -1 when the paper has no value for the cell
	fail       string
}

// instance is a workload prepared for one seed: its inputs are generated
// and whatever the program builds ahead of its first operation is built.
type instance struct {
	setup time.Duration // host time of that set-up (0 when all set-up happens inside operations)
	// round runs the workload's operations once and returns them.
	round func(r int, tr *tracer) []op
	// counters reports the daemon's and store's counters so far; nil for
	// workloads that run neither.
	counters func() layerCounts
	close    func()
}

// workload is one named set of inputs; BENCHMARK.json says why each was
// chosen and README.md what it should and should not move.
type workload struct {
	name    string
	reps    bool // set-up is separate from the rounds and is repeated for a median
	prepare func(sc scale, seed int64, dir string) (*instance, error)
}

var workloads = []workload{
	{"paper_sweep", true, preparePaperSweep},
	{"cube_parallel", false, prepareCubeParallel},
	{"atomic_tables", true, prepareAtomicTables},
	{"topology_mix", true, prepareTopologyMix},
	{"graph_cold", false, prepareGraphCold},
	{"daemon_cold", false, prepareDaemonCold},
	{"daemon_warm", true, prepareDaemonWarm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// layerCounts are the counters the daemon and its store keep themselves.
type layerCounts struct {
	requests, executed, rejected float64 // daemon: accepted POSTs, fresh simulations, 429/413 replies
	hits, misses                 float64 // store.Get outcomes
}

func (a layerCounts) plus(b layerCounts) layerCounts {
	return layerCounts{a.requests + b.requests, a.executed + b.executed, a.rejected + b.rejected, a.hits + b.hits, a.misses + b.misses}
}

// roundStat is what one round contributed.
type roundStat struct {
	wall   time.Duration
	ops    []op
	traced bool
	allocB uint64 // bytes allocated during the round
	gcs    uint32
}

// measured is everything a run of one workload observed.
type measured struct {
	setups   []time.Duration // one per set-up repetition
	rounds   []roundStat
	counters layerCounts
	rssMB    float64
}

// runWorkload prepares w and runs rounds until `seconds` have passed,
// always finishing the round in progress. With tr set, rounds alternate
// between traced and untraced so the trace's own cost can be read off the
// same run.
func runWorkload(w workload, sc scale, seed int64, seconds float64, dir string, tr *tracer) (*measured, error) {
	m := &measured{}
	var inst *instance
	reps := 1
	if w.reps {
		reps = sc.setupReps
	}
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = w.prepare(sc, seed, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m.setups = append(m.setups, inst.setup)
		runtime.GC()
	}
	defer inst.close()

	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for r := 0; ; r++ {
		rt := tr
		if tr != nil {
			tr.round = r
			if r%2 == 1 {
				rt = nil
			}
		}
		// Every round starts from a collected heap, so where the collector
		// runs inside a round, and with it the peak RSS, repeats.
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		ops := inst.round(r, rt)
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		m.rounds = append(m.rounds, roundStat{
			wall: wall, ops: ops, traced: rt != nil,
			allocB: ms1.TotalAlloc - ms0.TotalAlloc, gcs: ms1.NumGC - ms0.NumGC,
		})
		// Stop when the next round would end further past the deadline than
		// this one ended before it; a traced run needs one round of each kind.
		elapsed := time.Since(start).Seconds()
		if tr != nil && r == 0 {
			continue
		}
		if elapsed+wall.Seconds()/2 >= seconds {
			break
		}
	}
	if inst.counters != nil {
		m.counters = inst.counters()
	}
	m.rssMB = peakRSSMB()
	return m, nil
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// endToEndMetrics reduces the rounds to the end-to-end metrics: each is
// computed per round and the median over rounds is reported.
func (m *measured) endToEndMetrics() map[string]float64 {
	var prepared, walls, setups, rates, p50s, p95s []float64
	for _, d := range m.setups {
		prepared = append(prepared, d.Seconds())
	}
	for _, r := range m.rounds {
		var lat []float64
		var setup time.Duration
		var nc float64
		for _, o := range r.ops {
			lat = append(lat, float64(o.wall.Nanoseconds())/1e6)
			setup += o.setup
			nc += o.nodeCycles
		}
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, setup.Seconds())
		rates = append(rates, nc/r.wall.Seconds())
		p50s = append(p50s, percentile(lat, 50))
		p95s = append(p95s, percentile(lat, 95))
	}
	return map[string]float64{
		"setup_s":           median(prepared) + median(setups),
		"wall_s":            median(walls),
		"node_cycles_per_s": median(rates),
		"peak_rss_mb":       m.rssMB,
		"op_p50_ms":         median(p50s),
		"op_p95_ms":         median(p95s),
	}
}

// tracedWall is the summed wall clock of the rounds that recorded spans.
func (m *measured) tracedWall() (d time.Duration) {
	for _, r := range m.rounds {
		if r.traced {
			d += r.wall
		}
	}
	return d
}

// tally counts operations and failures over all rounds.
func (m *measured) tally() (attempted, failed int, reasons []string) {
	for _, r := range m.rounds {
		for _, o := range r.ops {
			attempted++
			if o.fail != "" {
				failed++
				if len(reasons) < 8 {
					reasons = append(reasons, o.cell+": "+o.fail)
				}
			}
		}
	}
	return attempted, failed, reasons
}

// execOp runs one spec through exec.Run and checks what can be checked
// without a golden: no error, and every packet accounted for.
func execOp(tr *tracer, parent int, cell string, s exec.RunSpec, o obs.Observer, nodes int) op {
	id := tr.begin(parent, "exec.run", cell)
	t0 := time.Now()
	res, err := exec.Run(context.Background(), s, o)
	wall := time.Since(t0)
	tr.end(id)
	out := op{cell: cell, wall: wall, golden: true, paperErr: -1}
	if err != nil {
		out.fail = err.Error()
		return out
	}
	run := time.Duration(res.ElapsedSec * float64(time.Second))
	tr.child(id, "sim.run", cell, run)
	out.setup = wall - run
	out.nodeCycles = float64(nodes) * float64(res.Metrics.Cycles)
	out.digest, out.fail = checkMetrics(res.Metrics)
	return out
}

// checkMetrics digests a run's metrics and checks packet conservation.
func checkMetrics(m sim.Metrics) (digest, fail string) {
	blob, err := json.Marshal(m)
	if err != nil {
		return "", err.Error()
	}
	if m.Injected != m.Delivered+m.Dropped+m.InFlight {
		fail = fmt.Sprintf("conservation: injected %d != delivered %d + dropped %d + in flight %d",
			m.Injected, m.Delivered, m.Dropped, m.InFlight)
	}
	return digestOf(blob), fail
}
