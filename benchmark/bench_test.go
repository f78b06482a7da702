package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestMain lets the test binary stand in for the benchmark binary, so the
// all-workloads mode can start real child processes of "itself".
func TestMain(m *testing.M) {
	if os.Getenv("BENCHMARK_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const quickSeconds = 0.05

func quickRun(t *testing.T, name string, seed int64, traced bool, gold goldens) report {
	t.Helper()
	rep, err := runOne(name, quickScale, seed, quickSeconds, traced, t.TempDir(), gold)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// Every workload finishes with nothing failed, on the golden seed and on a
// seed that has no goldens, and prints every end-to-end metric once, with
// its unit, and never zero.
func TestQuickWorkloadsUntraced(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{goldenSeed, 2} {
			rep := quickRun(t, w.name, seed, false, nil)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s seed %d: correct=%v attempted=%d failed=%d", w.name, seed, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("%s: %d metrics printed, want %d", w.name, len(rep.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) {
					t.Errorf("%s: metric %s = %+v (present %v), want unit %q and a value above 0", w.name, d.Name, v, ok, d.Unit)
				}
			}
		}
	}
}

// The traced pass prints every per-layer metric once, and every one that is
// a time is really measured.
func TestQuickWorkloadsTraced(t *testing.T) {
	for _, w := range workloads {
		rep := quickRun(t, w.name, goldenSeed, true, nil)
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", w.name, rep.Correct, rep.Failed)
		}
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics printed, want %d", w.name, len(rep.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			v, ok := rep.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("%s traced: metric %s = %+v (present %v), want unit %q", w.name, d.Name, v, ok, d.Unit)
			}
			isTime := d.Unit == "ns" || d.Unit == "us" || d.Unit == "ms" || d.Unit == "s"
			if isTime && v.Value == 0 {
				t.Errorf("%s traced: time metric %s reads 0", w.name, d.Name)
			}
		}
		// At the default scale coverage is above 0.98 everywhere; here a
		// request lasts microseconds and the loop's own bookkeeping shows.
		if c := rep.Metrics["trace.coverage"].Value; c < 0.7 || c > 1.0001 {
			t.Errorf("%s traced: trace.coverage = %v, want within [0.7, 1]", w.name, c)
		}
	}
}

// A golden that does not match the simulated output must count as failed.
func TestCorruptGoldenFails(t *testing.T) {
	for _, name := range []string{"paper_sweep", "graph_cold", "daemon_warm"} {
		gold, err := loadGoldens()
		if err != nil {
			t.Fatal(err)
		}
		cells := gold["quick"][name]
		if len(cells) == 0 {
			t.Fatalf("no quick goldens for %s", name)
		}
		for cell := range cells {
			cells[cell] = strings.Repeat("0", 24)
			break
		}
		rep := quickRun(t, name, goldenSeed, false, gold)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted golden went unnoticed: correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
	}
}

// A workload whose golden table is missing altogether must fail too, so a
// renamed cell cannot slip past the check.
func TestMissingGoldenFails(t *testing.T) {
	rep := quickRun(t, "cube_parallel", goldenSeed, false, goldens{})
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("missing golden went unnoticed: %+v", rep)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Names follow the contract's alphabet and are used once; BENCHMARK.json
// says exactly what the code prints.
func TestContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}

	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		got := b.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, got.Name, w.name)
		}
		if got.Why == "" || len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// paper_sweep's static cells do not depend on the cycle window the
// benchmark shrinks, so at the golden seed their rows must be the rows of
// tables_full.txt, and the digests of those rows must be the goldens.
func TestStaticRowsMatchTablesFull(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "tables_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	published := map[string]string{} // "table1/n10" -> "  11.01     21"
	table := ""
	for _, line := range strings.Split(string(blob), "\n") {
		if id, _, ok := strings.Cut(line, ":"); ok && strings.HasPrefix(line, "table") {
			table = id
			continue
		}
		parts := strings.Split(line, "|")
		if f := strings.Fields(parts[0]); table != "" && len(parts) >= 2 && len(f) == 2 && f[0] != "n" {
			published[table+"/n"+f[0]] = strings.TrimSpace(parts[1])
		}
	}
	gold, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, ex := range bench.Tables() {
		if ex.Injection == bench.Dynamic {
			continue
		}
		for _, d := range []int{10, 11} {
			cell := fmt.Sprintf("%s/n%d", ex.ID, d)
			row, err := ex.Run(d, bench.Options{Seed: goldenSeed})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%.2f %6d", row.Lavg, row.Lmax), published[cell]; strings.Join(strings.Fields(got), " ") != strings.Join(strings.Fields(want), " ") {
				t.Errorf("%s: row %q, tables_full.txt has %q", cell, got, want)
			}
			digest := digestOf([]byte(fmt.Sprintf("%d|%d|%v|%d|%v|%d|%d",
				row.Dims, row.Nodes, row.Lavg, row.Lmax, row.Ir, row.Cycles, row.Delivered)))
			if want := gold["default"]["paper_sweep"][cell]; digest != want {
				t.Errorf("%s: digest %s, golden %s", cell, digest, want)
			}
			checked++
		}
	}
	if checked != 16 {
		t.Errorf("checked %d static cells, want 16", checked)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "node_cycles_per_s", Better: "higher", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, base, scaled(1.03), "same"},
		{lower, base, scaled(1.20), "worse"},
		{lower, base, scaled(0.80), "better"},
		{higher, base, scaled(0.80), "worse"},
		{higher, base, scaled(1.20), "better"},
		{lower, base, []float64{0.5, 1.0, 1.5, 2.0, 0.7}, "unresolved"},
		{lower, []float64{2, 3, 4, 5, 6}, []float64{0.5, 0.6, 0.7, 0.8, 1.9}, "better"}, // wide, but every run better
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// The all-workloads mode runs each workload in a child process, writes a
// result file, and -compare reads two of them and finds nothing worse
// between two runs of the same code... on simulated outputs; host times at
// this scale are noise, so only the plumbing and the exit path are checked.
func TestAllWorkloadsModeAndCompare(t *testing.T) {
	t.Setenv("BENCHMARK_AS_MAIN", "1")
	dir := t.TempDir()
	files := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, f := range files {
		if err := runAll(quickScale, goldenSeed, quickSeconds, false, 1, dir, f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := readResults(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(workloads) {
		t.Fatalf("result file holds %d runs, want %d", len(res.Runs), len(workloads))
	}
	var out bytes.Buffer
	if _, err := compareFiles(&out, files[0], files[1]); err != nil {
		t.Fatal(err)
	}
	rows := strings.Count(out.String(), "\n") - 1
	if rows != len(workloads)*len(endToEnd) {
		t.Errorf("-compare printed %d rows, want %d:\n%s", rows, len(workloads)*len(endToEnd), out.String())
	}
}
