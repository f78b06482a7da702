// Command benchmark is the repository's one benchmark: seven named
// workloads that each put a different layer of the stack on the blocking
// path, end-to-end metrics a user would see, per-layer metrics from a traced
// pass, and simulated outputs checked against goldens so a host-time gain
// can never be a silent model change. README.md in this directory has the
// tables; BENCHMARK.json at the repository root is the contract.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//	benchmark [--trace 1] [-runs N] [-out FILE]               every workload, each in a child process
//	benchmark -compare A.json B.json                          two result files, metric by metric
//	benchmark -update-golden                                  rewrite golden.json (never with a claimed gain)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildid"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print one JSON line (default: run all, each in a child process)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
		quick    = flag.Bool("quick", false, "tiny scale for tests")
		outDir   = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for traces, result files and scratch data")
		runs     = flag.Int("runs", 1, "all-workloads mode: repeat the whole set this many times")
		outFile  = flag.String("out", "", "all-workloads mode: result file (default <outdir>/results.json)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on any worse")
		updGold  = flag.Bool("update-golden", false, "re-record golden.json for seed 1 at both scales")
		goldPath = flag.String("golden", filepath.Join("benchmark", "golden.json"), "file -update-golden rewrites")
	)
	flag.Parse()
	// The host has two CPUs; no workload uses more threads than that.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	sc := defaultScale
	if *quick {
		sc = quickScale
	}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *updGold:
		err = updateGoldens(*goldPath, *outDir)
	case *name != "":
		var rep report
		if rep, err = runOne(*name, sc, *seed, *seconds, *trace == 1, *outDir, nil); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
	default:
		err = runAll(sc, *seed, *seconds, *trace == 1, *runs, *outDir, *outFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOne runs one workload in this process. gold overrides the embedded
// goldens (tests use it to plant a corrupted one).
func runOne(name string, sc scale, seed int64, seconds float64, traced bool, outDir string, gold goldens) (report, error) {
	w, ok := findWorkload(name)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", name)
	}
	if gold == nil {
		var err error
		if gold, err = loadGoldens(); err != nil {
			return report{}, err
		}
	}
	dir, err := scratchDir(outDir)
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	budget := seconds
	if traced {
		tr = newTracer(name, seed)
		budget = seconds * tracedWorkloadShare
	}
	start := time.Now()
	m, err := runWorkload(w, sc, seed, budget, dir, tr)
	if err != nil {
		return report{}, err
	}
	want := gold[sc.name][name]
	if want == nil {
		want = map[string]string{} // every cell then fails for lack of a golden
	}
	checkOutputs(m, seed, want)

	var raw map[string]float64
	defs := endToEnd
	if traced {
		defs = perLayer
		left := time.Duration(seconds*float64(time.Second)) - time.Since(start)
		if raw, err = perLayerMetrics(sc, m, tr, dir, left); err != nil {
			return report{}, err
		}
		if err := tr.write(outDir, m.tracedWall()); err != nil {
			return report{}, err
		}
	} else {
		raw = m.endToEndMetrics()
	}
	metrics, err := fill(defs, raw)
	if err != nil {
		return report{}, err
	}
	attempted, failed, reasons := m.tally()
	for _, r := range reasons {
		fmt.Fprintln(os.Stderr, "benchmark: failed:", r)
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// tracedWorkloadShare is the part of a traced run's seconds spent on
// workload rounds; the rest goes to the per-layer timing loops.
const tracedWorkloadShare = 0.45

// scratchDir makes a directory of this process's own under outDir, so runs
// started side by side (go test) do not share store files.
func scratchDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-")
}

// hostInfo is recorded with every result file so that recordings from
// different hosts or builds are never compared by accident.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	BuildID    string `json:"build_id"`
}

func thisHost() hostInfo {
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), buildid.ID()}
}

// runRecord is one child run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Report   report `json:"report"`
}

// resultFile is what runAll writes and -compare reads.
type resultFile struct {
	Host    hostInfo    `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Scale   string      `json:"scale"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload untraced (and then traced, when asked), each
// in a fresh child process of this binary, one at a time, and prints every
// metric by name with its unit.
func runAll(sc scale, seed int64, seconds float64, traced bool, runs int, outDir, outFile string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := resultFile{Host: thisHost(), Seed: seed, Seconds: seconds, Scale: sc.name}
	h := res.Host
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s build=%s seed=%d seconds=%g scale=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.BuildID, seed, seconds, sc.name)
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	failed := 0
	for run := 0; run < runs; run++ {
		for _, pass := range passes {
			traceArg := "0"
			if pass {
				traceArg = "1"
			}
			for _, w := range workloads {
				args := []string{
					"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
					"--trace", traceArg, "-outdir", outDir,
				}
				if sc.name == "quick" {
					args = append(args, "-quick")
				}
				rep, err := runChild(exe, args)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				failed += rep.Failed
				res.Runs = append(res.Runs, runRecord{Workload: w.name, Traced: pass, Report: rep})
				printReport(w.name, pass, rep)
			}
		}
	}
	if outFile == "" {
		outFile = filepath.Join(outDir, "results.json")
	}
	blob, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outFile), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", outFile)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runChild runs one workload in a child process and parses the JSON object
// on the last line of its standard output.
func runChild(exe string, args []string) (report, error) {
	cmd := osexec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return report{}, fmt.Errorf("child printed no result: %w", err)
	}
	return rep, nil
}

func printReport(workload string, traced bool, rep report) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("\n%s (traced=%v): attempted=%d failed=%d correct=%v\n",
		workload, traced, rep.Attempted, rep.Failed, rep.Correct)
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		fmt.Printf("  %-36s %14.6g %s\n", d.Name, v.Value, v.Unit)
	}
}

// updateGoldens records, for the golden seed and at both scales, the digest
// of every cell each workload produces in one round.
func updateGoldens(path, outDir string) error {
	g := goldens{}
	for _, sc := range []scale{defaultScale, quickScale} {
		g[sc.name] = map[string]map[string]string{}
		for _, w := range workloads {
			dir, err := scratchDir(outDir)
			if err != nil {
				return err
			}
			m, err := runWorkload(w, sc, goldenSeed, 0, dir, nil)
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			pinned := checkOutputs(m, goldenSeed, nil)
			if _, failed, reasons := m.tally(); failed > 0 {
				return fmt.Errorf("%s/%s: %d operations failed: %s", sc.name, w.name, failed, strings.Join(reasons, "; "))
			}
			g[sc.name][w.name] = pinned
			fmt.Printf("%s/%s: %d cells\n", sc.name, w.name, len(pinned))
		}
	}
	return writeGoldens(path, g)
}
