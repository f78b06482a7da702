package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open("", store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close(); cfg.Store.Close() })
	return s, hs
}

func postSpec(t *testing.T, url string, spec exec.RunSpec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// The tentpole acceptance path: the same spec POSTed twice returns
// bit-identical metrics, with the second response served from the store.
func TestMissThenHit(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	spec := exec.RunSpec{Algo: "hypercube-adaptive:4", Seed: 1}

	resp1, body1 := postSpec(t, hs.URL, spec)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	var r1 struct {
		Cached  bool            `json:"cached"`
		FP      string          `json:"fingerprint"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first request claims a cache hit on an empty store")
	}

	resp2, body2 := postSpec(t, hs.URL, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", resp2.StatusCode, body2)
	}
	var r2 struct {
		Cached  bool            `json:"cached"`
		FP      string          `json:"fingerprint"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second identical request was not served from the store")
	}
	if r1.FP != r2.FP {
		t.Fatalf("fingerprint changed between requests: %s vs %s", r1.FP, r2.FP)
	}
	if !bytes.Equal(r1.Metrics, r2.Metrics) {
		t.Fatalf("cached metrics not byte-identical:\n%s\n%s", r1.Metrics, r2.Metrics)
	}
	c := srv.st.Stats().Counts()
	if c.Hits != 1 || c.Puts != 1 {
		t.Fatalf("store counters: %+v, want 1 hit / 1 put", c)
	}

	// GET by fingerprint serves the same stored result.
	resp3, err := http.Get(hs.URL + "/v1/sim/" + r1.FP)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GET by fingerprint: %d", resp3.StatusCode)
	}
}

// A generated-topology run round-trips as a v2 spec: the combined and
// split spellings land on the same fingerprint, the second POST is a
// store hit, and the canonical spec echoed back carries the split form.
func TestGraphSpecV2RoundTrip(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	combined := exec.RunSpec{Algo: "graph-adaptive:dragonfly:a=2,g=5", Packets: 1, Seed: 3}
	split := exec.RunSpec{Algo: "graph-adaptive", Topology: "graph:dragonfly:a=2,g=5", Packets: 1, Seed: 3}

	resp1, body1 := postSpec(t, hs.URL, combined)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	var r1 struct {
		Cached  bool            `json:"cached"`
		FP      string          `json:"fingerprint"`
		V       int             `json:"v"`
		Spec    exec.RunSpec    `json:"spec"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first graph request claims a cache hit on an empty store")
	}
	if r1.V != exec.SpecVersion {
		t.Fatalf("result schema version %d, want %d", r1.V, exec.SpecVersion)
	}
	if r1.Spec.Algo != "graph-adaptive" || r1.Spec.Topology != "graph:dragonfly:a=2,g=5" {
		t.Fatalf("canonical spec not split: algo=%q topology=%q", r1.Spec.Algo, r1.Spec.Topology)
	}

	resp2, body2 := postSpec(t, hs.URL, split)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", resp2.StatusCode, body2)
	}
	var r2 struct {
		Cached  bool            `json:"cached"`
		FP      string          `json:"fingerprint"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("split spelling of the same run was not served from the store")
	}
	if r1.FP != r2.FP {
		t.Fatalf("combined and split spellings disagree on the fingerprint: %s vs %s", r1.FP, r2.FP)
	}
	if !bytes.Equal(r1.Metrics, r2.Metrics) {
		t.Fatalf("cached metrics not byte-identical:\n%s\n%s", r1.Metrics, r2.Metrics)
	}
	if c := srv.st.Stats().Counts(); c.Hits != 1 || c.Puts != 1 {
		t.Fatalf("store counters: %+v, want 1 hit / 1 put", c)
	}
}

func TestValidationError(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, body := postSpec(t, hs.URL, exec.RunSpec{Algo: "ring-adaptive:8"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Field != "algo" || e.Error == "" {
		t.Fatalf("error body should blame the algo field: %+v", e)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Post(hs.URL+"/v1/sim", "application/json",
		strings.NewReader(`{"algo":"hypercube-adaptive:4","seeds":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misspelled field accepted: status %d, want 400", resp.StatusCode)
	}
}

// fakeExec returns a controllable executor: each call blocks until release
// is closed.
func fakeExec(calls *atomic.Int64, release <-chan struct{}) func(context.Context, *exec.Compiled, int, obs.Observer) (exec.Result, error) {
	return func(ctx context.Context, c *exec.Compiled, _ int, _ obs.Observer) (exec.Result, error) {
		calls.Add(1)
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return exec.Result{}, ctx.Err()
			}
		}
		return exec.Result{V: 1, Spec: c.Spec}, nil
	}
}

// With one slot and a one-deep queue, a burst of distinct specs must see
// 429 backpressure with a Retry-After header, while every admitted request
// still completes.
func TestBackpressure429(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	_, hs := newTestServer(t, Config{Jobs: 1, QueueCap: 1, Exec: fakeExec(&calls, release)})

	specN := func(n int) exec.RunSpec {
		return exec.RunSpec{Algo: "hypercube-adaptive:4", Seed: int64(n)}
	}
	type out struct {
		code       int
		retryAfter string
	}
	var wg sync.WaitGroup
	results := make(chan out, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postSpec(t, hs.URL, specN(i))
			results <- out{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	// Give requests time to pile up, then let the admitted ones finish.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)
	ok, rejected := 0, 0
	for r := range results {
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			if r.retryAfter == "" {
				t.Error("429 without a Retry-After header")
			}
		default:
			t.Fatalf("unexpected status %d", r.code)
		}
	}
	if rejected == 0 {
		t.Fatal("no request saw 429 despite 8 distinct specs on a 1-slot, 1-queue server")
	}
	if ok == 0 {
		t.Fatal("every request was rejected; admitted ones should complete")
	}
	if int(calls.Load()) != ok {
		t.Fatalf("executor ran %d times for %d OK responses", calls.Load(), ok)
	}
}

// Concurrent identical specs are deduplicated in flight: the executor runs
// once, the followers wait and are marked coalesced.
func TestSingleflight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	_, hs := newTestServer(t, Config{Jobs: 4, QueueCap: 8, Exec: fakeExec(&calls, release)})
	spec := exec.RunSpec{Algo: "hypercube-adaptive:4", Seed: 9}

	type out struct {
		coalesced bool
		status    int
	}
	results := make(chan out, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postSpec(t, hs.URL, spec)
			var r struct {
				Coalesced bool `json:"coalesced"`
			}
			json.Unmarshal(body, &r)
			results <- out{r.Coalesced, resp.StatusCode}
		}()
	}
	// Wait until the leader has actually started executing, then give the
	// followers a moment to register on the flight before releasing.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)
	coalesced := 0
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("status %d", r.status)
		}
		if r.coalesced {
			coalesced++
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times for 4 identical concurrent specs", calls.Load())
	}
	if coalesced != 3 {
		t.Fatalf("%d followers marked coalesced, want 3", coalesced)
	}
}

// SSE: a fresh run streams queued, progress (from the Observer layer) and a
// terminal result event; a cache hit streams just the result.
func TestSSEProgress(t *testing.T) {
	_, hs := newTestServer(t, Config{ProgressEvery: 10})
	spec := exec.RunSpec{Algo: "hypercube-adaptive:5", Inject: "dynamic", Warmup: 50, Measure: 200, Seed: 2}
	body, _ := json.Marshal(spec)

	events := func() map[string]int {
		req, _ := http.NewRequest("POST", hs.URL+"/v1/sim", bytes.NewReader(body))
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("content type %q", ct)
		}
		seen := map[string]int{}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				seen[name]++
			}
		}
		return seen
	}

	first := events()
	if first["queued"] != 1 || first["result"] != 1 {
		t.Fatalf("fresh SSE run: %v, want one queued and one result event", first)
	}
	if first["progress"] == 0 {
		t.Fatalf("fresh SSE run emitted no progress events: %v", first)
	}
	second := events()
	if second["result"] != 1 || second["queued"] != 0 || second["progress"] != 0 {
		t.Fatalf("cached SSE run should be a single result event: %v", second)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	postSpec(t, hs.URL, exec.RunSpec{Algo: "hypercube-adaptive:4", Seed: 1})
	postSpec(t, hs.URL, exec.RunSpec{Algo: "hypercube-adaptive:4", Seed: 1})
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"repro_store_hits_total 1",
		"repro_store_puts_total 1",
		"repro_daemon_requests_total 2",
		"repro_daemon_executed_total 1",
		"repro_daemon_queue_len 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q:\n%s", want, text)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		BuildID string `json:"build_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
}

func TestMaxCostRejection(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxCost: 10})
	resp, body := postSpec(t, hs.URL, exec.RunSpec{Algo: "hypercube-adaptive:10", Seed: 1})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d (%s), want 413", resp.StatusCode, body)
	}
}

// A run that fails (here: canceled by RunTimeout) maps to 422, and the
// failure is not stored — the next request runs fresh.
func TestRunErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	execFn := func(ctx context.Context, c *exec.Compiled, _ int, _ obs.Observer) (exec.Result, error) {
		if calls.Add(1) == 1 {
			return exec.Result{}, fmt.Errorf("transient failure")
		}
		return exec.Result{V: 1, Spec: c.Spec}, nil
	}
	srv, hs := newTestServer(t, Config{Exec: execFn})
	spec := exec.RunSpec{Algo: "hypercube-adaptive:4", Seed: 5}
	resp, _ := postSpec(t, hs.URL, spec)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("failed run: status %d, want 422", resp.StatusCode)
	}
	if srv.st.Len() != 0 {
		t.Fatal("failed run was stored")
	}
	resp2, _ := postSpec(t, hs.URL, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after failure: status %d", resp2.StatusCode)
	}
}

// A v2 spec carrying a traffic model executes, caches under its own
// fingerprint (distinct from the Bernoulli default), and echoes the model
// in the canonical spec; an explicit "bernoulli" hits the default's cache
// entry. A malformed model is a 4xx validation error naming the field.
func TestTrafficSpecRoundTrip(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	base := exec.RunSpec{Algo: "hypercube-adaptive:4", Inject: "dynamic", Lambda: 0.5, Warmup: 20, Measure: 100, Seed: 2}
	mmpp := base
	mmpp.Traffic = "mmpp:on=0.9,off=0.05"

	resp1, body1 := postSpec(t, hs.URL, mmpp)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("mmpp POST: %d %s", resp1.StatusCode, body1)
	}
	var r1 struct {
		Cached  bool            `json:"cached"`
		FP      string          `json:"fingerprint"`
		Spec    exec.RunSpec    `json:"spec"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first mmpp request claims a cache hit on an empty store")
	}
	if r1.Spec.Traffic != "mmpp:on=0.9,off=0.05" {
		t.Fatalf("canonical spec lost the traffic model: %q", r1.Spec.Traffic)
	}

	resp2, body2 := postSpec(t, hs.URL, base)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("bernoulli POST: %d %s", resp2.StatusCode, body2)
	}
	var r2 struct {
		Cached bool   `json:"cached"`
		FP     string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Fatal("default-traffic run must not hit the mmpp cache entry")
	}
	if r1.FP == r2.FP {
		t.Fatal("mmpp and bernoulli runs share a fingerprint")
	}

	// Explicit "bernoulli" is the same run as the default spelling.
	explicit := base
	explicit.Traffic = "bernoulli"
	resp3, body3 := postSpec(t, hs.URL, explicit)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("explicit bernoulli POST: %d %s", resp3.StatusCode, body3)
	}
	var r3 struct {
		Cached bool   `json:"cached"`
		FP     string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body3, &r3); err != nil {
		t.Fatal(err)
	}
	if !r3.Cached || r3.FP != r2.FP {
		t.Fatalf("explicit bernoulli: cached=%v fp=%s, want cache hit on %s", r3.Cached, r3.FP, r2.FP)
	}
	if c := srv.st.Stats().Counts(); c.Hits != 1 || c.Puts != 2 {
		t.Fatalf("store counters: %+v, want 1 hit / 2 puts", c)
	}

	bad := base
	bad.Traffic = "poisson"
	resp4, body4 := postSpec(t, hs.URL, bad)
	if resp4.StatusCode != http.StatusUnprocessableEntity && resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown traffic model: %d %s", resp4.StatusCode, body4)
	}
	if !bytes.Contains(body4, []byte("traffic")) {
		t.Fatalf("validation error does not name the traffic field: %s", body4)
	}
}

// A trace spec names a file on the server, so the daemon refuses it with a
// FieldError on traffic before Compile opens anything: a path outside any
// directory, a relative one, and a real, well-formed trace file alike. The
// message is the refusal's own, not a parse error of the file, and nothing
// runs or is stored.
func TestTraceSpecRefused(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(trace, []byte(`{"c":0,"s":0,"d":3}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/etc/passwd", "../x", trace} {
		resp, body := postSpec(t, hs.URL, exec.RunSpec{Algo: "hypercube-adaptive:4", Traffic: "trace:" + path, Seed: 1})
		var e struct {
			Error string `json:"error"`
			Field string `json:"field"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("trace:%s: %d %s", path, resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Field != "traffic" || !strings.Contains(e.Error, "not served over HTTP") {
			t.Errorf("trace:%s: status %d body %+v, want 400 refusing the traffic field", path, resp.StatusCode, e)
		}
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{"repro_store_puts_total 0", "repro_daemon_executed_total 0"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics page missing %q:\n%s", want, buf.String())
		}
	}
}

// One store, two front ends: a cell a sweep stored is a cache hit for the
// daemon, and a result the daemon stored is a cached cell for a sweep. The
// store is a file, closed and reopened between the two, as it is between
// `tables -cache f` and `routesimd -cache f`. The cut-through node model
// takes the same path through its engine value.
func TestSweepAndDaemonShareStore(t *testing.T) {
	ex, err := bench.FindTable("table9")
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		opt  bench.Options
		jobs []sweep.Job
		spec exec.RunSpec
	}
	var cells []cell
	for _, engine := range []string{"", "buffered:vct"} {
		opt := bench.Options{Seed: 1, Warmup: 50, Measure: 100, Engine: engine}
		jobs, err := sweep.BuildJobs(sweep.SuitePaper, "table9", 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ex.Spec(10, opt)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{opt, jobs, spec})
	}
	open := func(t *testing.T, path string) *store.Store {
		t.Helper()
		st, err := store.Open(path, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	postRow := func(t *testing.T, url string, spec exec.RunSpec) (Response, bench.Row) {
		t.Helper()
		resp, body := postSpec(t, url, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST: %d %s", resp.StatusCode, body)
		}
		var r Response
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r, ex.Row(10, r.Result)
	}

	t.Run("sweep then daemon", func(t *testing.T) {
		for _, c := range cells {
			path := filepath.Join(t.TempDir(), "shared.jsonl")
			st := open(t, path)
			swept, err := sweep.Run(context.Background(), c.jobs, c.opt, sweep.Options{Store: st})
			st.Close()
			if err != nil || len(swept) != 1 || swept[0].Cached {
				t.Fatalf("engine %q: cold sweep: %+v, %v", c.opt.Engine, swept, err)
			}
			srv, hs := newTestServer(t, Config{Store: open(t, path)})
			r, row := postRow(t, hs.URL, c.spec)
			if !r.Cached || srv.executed.Load() != 0 {
				t.Errorf("engine %q: daemon over the sweep's store: cached=%v executed=%d, want a pure hit", c.opt.Engine, r.Cached, srv.executed.Load())
			}
			if row != swept[0].Row {
				t.Errorf("engine %q: daemon served %+v, the sweep computed %+v", c.opt.Engine, row, swept[0].Row)
			}
		}
	})

	t.Run("daemon then sweep", func(t *testing.T) {
		for _, c := range cells {
			path := filepath.Join(t.TempDir(), "shared.jsonl")
			st := open(t, path)
			srv, hs := newTestServer(t, Config{Store: st})
			r, row := postRow(t, hs.URL, c.spec)
			if r.Cached || srv.executed.Load() != 1 {
				t.Fatalf("engine %q: cold POST: cached=%v executed=%d", c.opt.Engine, r.Cached, srv.executed.Load())
			}
			st.Close()
			st2 := open(t, path)
			swept, err := sweep.Run(context.Background(), c.jobs, c.opt, sweep.Options{Store: st2})
			st2.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(swept) != 1 || !swept[0].Cached {
				t.Fatalf("engine %q: sweep over the daemon's store re-ran the cell: %+v", c.opt.Engine, swept)
			}
			if swept[0].Row != row {
				t.Errorf("engine %q: sweep served %+v, the daemon computed %+v", c.opt.Engine, swept[0].Row, row)
			}
		}
	})
}
