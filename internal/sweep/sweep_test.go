package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/store"
)

// testOptions keeps the simulated windows short: the determinism claims
// under test do not depend on the window length.
func testOptions() bench.Options {
	return bench.Options{Seed: 1, Warmup: 50, Measure: 100}
}

func testJobs(t *testing.T, opt bench.Options) []Job {
	t.Helper()
	jobs, err := BuildJobs(SuitePaper, "", 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 10 {
		t.Fatalf("paper suite at maxn 10 yielded only %d jobs", len(jobs))
	}
	return jobs
}

// openStore opens (or reopens, replaying it) the file-backed store at path.
func openStore(t *testing.T, path string) *store.Store {
	t.Helper()
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func cachedCount(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Cached {
			n++
		}
	}
	return n
}

func rowsOf(results []Result) []bench.Row {
	rows := make([]bench.Row, len(results))
	for i, r := range results {
		rows[i] = r.Row
	}
	return rows
}

// The merged results must be identical whatever the concurrency level: the
// scheduler varies worker counts and completion order, never the rows.
func TestSweepDeterminismAcrossJobs(t *testing.T) {
	opt := testOptions()
	jobs := testJobs(t, opt)

	seq, err := Run(context.Background(), jobs, opt, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), jobs, opt, Options{Jobs: 4, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Row != par[i].Row {
			t.Errorf("%s: jobs=1 row %+v != jobs=4 row %+v", jobs[i].ID, seq[i].Row, par[i].Row)
		}
	}
}

// A sweep killed after N cells and resumed must produce exactly the rows of
// an uninterrupted run, with the first run's cells served from the store.
// The store is closed and reopened in between, as a second process would,
// so the resumed rows are rebuilt from results replayed off the file.
func TestSweepStopAndResume(t *testing.T) {
	opt := testOptions()
	jobs := testJobs(t, opt)
	path := filepath.Join(t.TempDir(), "results.jsonl")

	full, err := Run(context.Background(), jobs, opt, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	const stopAfter = 4
	st := openStore(t, path)
	_, err = Run(context.Background(), jobs, opt, Options{
		Jobs: 2, Budget: 2, Store: st, StopAfter: stopAfter,
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stop-after run returned %v, want ErrStopped", err)
	}
	st.Close()

	resumed, err := Run(context.Background(), jobs, opt, Options{
		Jobs: 2, Budget: 2, Store: openStore(t, path),
	})
	if err != nil {
		t.Fatal(err)
	}
	cached := cachedCount(resumed)
	if cached < stopAfter {
		t.Errorf("resume served %d cells from the store, want >= %d", cached, stopAfter)
	}
	if cached == len(resumed) {
		t.Error("every cell was cached; the stop-after run did not stop early")
	}
	fullRows, resumedRows := rowsOf(full), rowsOf(resumed)
	for i := range fullRows {
		if fullRows[i] != resumedRows[i] {
			t.Errorf("%s: uninterrupted row %+v != resumed row %+v", jobs[i].ID, fullRows[i], resumedRows[i])
		}
	}

	// A third run finds every cell and simulates nothing.
	again, err := Run(context.Background(), jobs, opt, Options{Jobs: 1, Store: openStore(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	if n := cachedCount(again); n != len(jobs) {
		t.Errorf("warm run served %d of %d cells from the store", n, len(jobs))
	}
	for i, r := range rowsOf(again) {
		if r != fullRows[i] {
			t.Errorf("%s: warm row %+v != uninterrupted row %+v", jobs[i].ID, r, fullRows[i])
		}
	}
}

// Results stored under different options must be ignored wholesale:
// resuming with a new seed re-runs every cell.
func TestSweepResumeIgnoresStaleCheckpoint(t *testing.T) {
	opt := testOptions()
	jobs := testJobs(t, opt)
	path := filepath.Join(t.TempDir(), "results.jsonl")

	st := openStore(t, path)
	if _, err := Run(context.Background(), jobs, opt, Options{Jobs: 1, Store: st}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	newOpt := opt
	newOpt.Seed = 42
	newJobs := testJobs(t, newOpt)
	resumed, err := Run(context.Background(), newJobs, newOpt, Options{
		Jobs: 1, Store: openStore(t, path),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resumed {
		if r.Cached {
			t.Errorf("%s: cell served from a result stored under another seed", r.Job.ID)
		}
	}
}

// The store key must change with every option that changes the rows. The
// sweep's own fingerprint, since deleted, left out bench.Options.Traffic: a
// table swept with -traffic mmpp and then without it printed the mmpp rows
// both times. Cells are keyed by RunSpec.Fingerprint now, so a sweep under
// one option value must find none of the cells stored under another, and
// must return the rows it would have computed with no store at all.
func TestFingerprintInvalidation(t *testing.T) {
	base := testOptions()
	jobsFor := func(o bench.Options) []Job { // each job carries its options' spec
		t.Helper()
		jobs, err := BuildJobs(SuitePaper, "table12", 10, o)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	jobs := jobsFor(base)
	want, err := Run(context.Background(), jobs, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, change := range map[string]func(*bench.Options){
		"traffic":   func(o *bench.Options) { o.Traffic = "mmpp" },
		"policy":    func(o *bench.Options) { o.Policy = sim.PolicyLastFree },
		"queue cap": func(o *bench.Options) { o.QueueCap = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			st := openStore(t, filepath.Join(t.TempDir(), "results.jsonl"))
			changed := base
			change(&changed)
			other, err := Run(context.Background(), jobsFor(changed), changed, Options{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(context.Background(), jobs, base, Options{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if n := cachedCount(got); n != 0 {
				t.Errorf("%d cells served from results stored under another %s", n, name)
			}
			differs := false
			for i := range got {
				if got[i].Row != want[i].Row {
					t.Errorf("%s: row %+v, want the store-less row %+v", jobs[i].ID, got[i].Row, want[i].Row)
				}
				differs = differs || other[i].Row != want[i].Row
			}
			if !differs {
				t.Errorf("changing %s moved no row; the check above proves nothing", name)
			}
			// Both option values now sit side by side in the one store.
			for _, o := range []bench.Options{changed, base} {
				warm, err := Run(context.Background(), jobsFor(o), o, Options{Store: st})
				if err != nil {
					t.Fatal(err)
				}
				if n := cachedCount(warm); n != len(jobs) {
					t.Errorf("rerun served %d of %d cells from the store", n, len(jobs))
				}
			}
		})
	}
}

// A job BuildJobs did not make carries no compiled spec: Run refuses it.
func TestRunRefusesForeignJob(t *testing.T) {
	_, err := Run(context.Background(), []Job{{ID: "table9/n4", Exp: "table9", Size: 4}}, testOptions(), Options{})
	if err == nil || !strings.Contains(err.Error(), "table9/n4") {
		t.Errorf("err = %v, want a refusal naming the job", err)
	}
}

// A trace cell is fingerprinted by its file's path, not its content, so the
// store must neither keep nor serve it: rewriting the trace between two
// sweeps over one store changes the second sweep's row.
func TestSweepTraceBypassesStore(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	opt := testOptions()
	opt.Traffic = "trace:" + trace
	jobs, err := BuildJobs(SuitePaper, "table12", 9, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, filepath.Join(dir, "results.jsonl"))
	sweepWith := func(lines string) Result {
		t.Helper()
		if err := os.WriteFile(trace, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), jobs, opt, Options{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("table12 at maxn 9 is %d cells, want 1", len(res))
		}
		return res[0]
	}
	one := sweepWith(`{"c":60,"s":0,"d":3}` + "\n")
	two := sweepWith(`{"c":60,"s":0,"d":3}` + "\n" + `{"c":61,"s":5,"d":500}` + "\n")
	if one.Cached || two.Cached {
		t.Error("a trace cell was served from the store")
	}
	if one.Row.Delivered != 1 || two.Row.Delivered != 2 {
		t.Errorf("delivered %d then %d packets, want 1 then 2: the second sweep did not replay the rewritten trace",
			one.Row.Delivered, two.Row.Delivered)
	}
	if c := st.Stats().Counts(); c.Puts != 0 || c.Hits+c.Misses != 0 {
		t.Errorf("store touched for a trace cell: %+v", c)
	}
}

// Cancellation must surface as a context error, not hang or a corrupt merge.
func TestSweepCancel(t *testing.T) {
	opt := testOptions()
	jobs := testJobs(t, opt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, jobs, opt, Options{Jobs: 2, Budget: 2})
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
}

func TestBuildJobsShape(t *testing.T) {
	opt := testOptions()
	jobs, err := BuildJobs(SuiteAll, "", 12, opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, j := range jobs {
		if j.Seq != i {
			t.Fatalf("job %s has Seq %d at position %d", j.ID, j.Seq, i)
		}
		if seen[j.ID] {
			t.Fatalf("duplicate job id %s", j.ID)
		}
		seen[j.ID] = true
		if j.Cost <= 0 {
			t.Errorf("%s: non-positive cost %f", j.ID, j.Cost)
		}
		if j.Nodes <= 0 {
			t.Errorf("%s: non-positive nodes %d", j.ID, j.Nodes)
		}
	}
	// The credited shuffle-exchange cells must be pinned to one worker:
	// their tie-breaking is worker-count dependent.
	sawShuffle := false
	for _, j := range jobs {
		if j.Exp == "ext-shuffle-random-n" || j.Exp == "ext-shuffle-random-dyn" {
			sawShuffle = true
			if j.Parallelizable {
				t.Errorf("%s: credited algorithm marked parallelizable", j.ID)
			}
		}
	}
	if !sawShuffle {
		t.Fatal("suite all did not include shuffle-exchange cells")
	}

	// The atomic engine ignores Workers: nothing is parallelizable there.
	aOpt := opt
	aOpt.Engine = "atomic"
	aJobs, err := BuildJobs(SuitePaper, "", 10, aOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range aJobs {
		if j.Parallelizable {
			t.Errorf("%s: atomic-engine cell marked parallelizable", j.ID)
		}
	}
}

// A job's Nodes, Cost and Parallelizable are what exec.Compile says of the
// spec its cell runs, for every cell of both suites and on both engines.
func TestBuildJobsAreCompiledSpecs(t *testing.T) {
	for _, engine := range []string{"", "atomic"} {
		opt := testOptions()
		opt.Engine = engine
		jobs, err := BuildJobs(SuiteAll, "", 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			ex, err := bench.Find(j.Exp)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ex.Spec(j.Size, opt)
			if err != nil {
				t.Fatal(err)
			}
			c, err := exec.Compile(s)
			if err != nil {
				t.Fatalf("%s: %v", j.ID, err)
			}
			if j.Nodes != c.Nodes() || j.Cost != c.Cost || j.Parallelizable != c.Parallelizable {
				t.Errorf("%s (engine %q): job has nodes %d cost %g parallelizable %v, the compiled spec %d %g %v",
					j.ID, engine, j.Nodes, j.Cost, j.Parallelizable, c.Nodes(), c.Cost, c.Parallelizable)
			}
		}
	}
}

// A bad option is refused while the job list is built, before any cell
// runs.
func TestBuildJobsRefusesBadOptions(t *testing.T) {
	for name, change := range map[string]func(*bench.Options){
		"traffic":   func(o *bench.Options) { o.Traffic = "bogus" },
		"algorithm": func(o *bench.Options) { o.Algorithm = "bogus" },
		"engine":    func(o *bench.Options) { o.Engine = "bogus" },
	} {
		opt := testOptions()
		change(&opt)
		if _, err := BuildJobs(SuitePaper, "", 10, opt); err == nil {
			t.Errorf("%s: a bogus value built a job list", name)
		}
	}
}

func TestBuildJobsSingleTable(t *testing.T) {
	opt := testOptions()
	jobs, err := BuildJobs(SuitePaper, "table9", 12, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Exp != "table9" {
			t.Fatalf("table selector leaked job %s", j.ID)
		}
	}
	if len(jobs) != 3 { // n = 10, 11, 12
		t.Fatalf("table9 at maxn 12 yielded %d jobs, want 3", len(jobs))
	}
	if _, err := BuildJobs(SuitePaper, "no-such-table", 0, opt); err == nil {
		t.Fatal("unknown table accepted")
	}
}
