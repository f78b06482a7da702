// Package daemon implements routesimd's HTTP service: simulation as a
// service over the scheduler/store/executor split. POST /v1/sim accepts a
// canonical exec.RunSpec as JSON, serves repeats straight from the
// content-addressed result store (internal/store) without simulating,
// deduplicates concurrent identical requests in flight (singleflight), and
// queues genuine misses onto the sweep scheduler behind a bounded queue
// with HTTP 429 backpressure. Progress streams as Server-Sent Events from
// the Observer layer; /metrics exposes the store and queue counters in
// Prometheus text format next to the usual pprof handlers.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildid"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Config tunes a daemon instance. Store is required; everything else has
// serving defaults.
type Config struct {
	Store *store.Store
	// Jobs bounds concurrently executing simulations; Budget is the total
	// worker budget split across them (defaults 1 and GOMAXPROCS-shaped
	// choices are the caller's: cmd/routesimd wires its flags here).
	Jobs   int
	Budget int
	// QueueCap bounds requests waiting for an execution slot; submissions
	// beyond it receive 429. Default 16.
	QueueCap int
	// MaxCost rejects specs whose estimated work (exec.Compiled.Cost, in
	// node-cycles) exceeds it with 413; 0 accepts everything.
	MaxCost float64
	// RunTimeout bounds a single simulation's wall clock; 0 = unbounded.
	RunTimeout time.Duration
	// ProgressEvery is the SSE progress period in cycles. Default 500.
	ProgressEvery int64
	// BuildID overrides the fingerprint build key (tests); default
	// buildid.ID().
	BuildID string
	// Exec overrides the executor (tests); default (*exec.Compiled).Run.
	Exec func(ctx context.Context, c *exec.Compiled, workers int, o obs.Observer) (exec.Result, error)
}

// Response is the /v1/sim response envelope: the executed (or replayed)
// exec.Result plus serving metadata. Metrics is byte-identical for the
// same fingerprint whether computed or served from the store.
type Response struct {
	exec.Result
	// Cached reports the result was served from the store, no simulation
	// executed.
	Cached bool `json:"cached"`
	// Coalesced reports the request was deduplicated onto an identical
	// run already in flight (it waited, but did not execute).
	Coalesced bool `json:"coalesced,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"` // offending RunSpec field, when known
}

// flight is one in-flight execution, deduplicating identical fingerprints.
type flight struct {
	done chan struct{}
	resp Response
	err  error
	code int // HTTP status for err
}

// Server is the daemon: build one with New, mount Handler, Close on exit.
type Server struct {
	cfg   Config
	st    *store.Store
	sched *sweep.Scheduler
	mux   *http.ServeMux

	baseCtx context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	inflight map[string]*flight

	requests  atomic.Int64
	executed  atomic.Int64
	coalesced atomic.Int64
	rejected  atomic.Int64
	started   time.Time
}

// New builds a daemon over its store and starts the scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("daemon: Config.Store is required")
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = 1
	}
	if cfg.Budget < 1 {
		cfg.Budget = cfg.Jobs
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 16
	}
	if cfg.ProgressEvery < 1 {
		cfg.ProgressEvery = 500
	}
	if cfg.BuildID == "" {
		cfg.BuildID = buildid.ID()
	}
	if cfg.Exec == nil {
		cfg.Exec = func(ctx context.Context, c *exec.Compiled, workers int, o obs.Observer) (exec.Result, error) {
			return c.Run(ctx, workers, o)
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		st:       cfg.Store,
		sched:    sweep.NewScheduler(cfg.Jobs, cfg.Budget, cfg.QueueCap),
		baseCtx:  ctx,
		stop:     stop,
		inflight: map[string]*flight{},
		started:  time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sim", s.handleSim)
	mux.HandleFunc("/v1/sim/", s.handleGetByFP)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels in-flight runs and shuts the scheduler down.
func (s *Server) Close() {
	s.stop()
	s.sched.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","build_id":%q,"uptime_sec":%.0f}`+"\n",
		s.cfg.BuildID, time.Since(s.started).Seconds())
}

// handleMetrics renders the serving-layer counters: store hit/miss/evict,
// queue depth, and request accounting.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.st.Stats().Counts().WriteProm(w)
	for _, m := range []struct {
		name, typ, help string
		v               int64
	}{
		{"repro_daemon_requests_total", "counter", "POST /v1/sim requests accepted for processing", s.requests.Load()},
		{"repro_daemon_executed_total", "counter", "Requests that ran a fresh simulation", s.executed.Load()},
		{"repro_daemon_coalesced_total", "counter", "Requests deduplicated onto an in-flight identical run", s.coalesced.Load()},
		{"repro_daemon_rejected_total", "counter", "Requests rejected by backpressure (429) or cost limits (413)", s.rejected.Load()},
		{"repro_daemon_queue_len", "gauge", "Requests waiting for an execution slot", int64(s.sched.QueueLen())},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.typ, m.name, m.v)
	}
}

// handleGetByFP serves GET /v1/sim/<fingerprint>: the stored result under
// that key, or 404.
func (s *Server) handleGetByFP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET /v1/sim/<fingerprint>, or POST /v1/sim", "")
		return
	}
	fp := strings.TrimPrefix(r.URL.Path, "/v1/sim/")
	res, ok, err := exec.Load(s.st, fp)
	switch {
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err.Error(), "")
	case !ok:
		writeErr(w, http.StatusNotFound, "no stored result for fingerprint "+fp, "")
	default:
		writeJSON(w, http.StatusOK, Response{Result: res, Cached: true})
	}
}

// handleSim is POST /v1/sim: compile (which validates), fingerprint, serve
// from store, dedup in flight, or schedule. The spec is compiled exactly
// once per request — a generated-graph spec's compile is its topology
// generator plus an all-pairs BFS — and the compiled form answers every
// later question about it (cost, worker grant, the run itself). A trace
// replay is refused before Compile opens anything: its traffic is a path on
// this server's filesystem, which a client has no business naming, and
// every spec the daemon does run is Storable.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST with a JSON RunSpec body", "")
		return
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields() // catch misspelled spec fields at the door
	var spec exec.RunSpec
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "bad RunSpec JSON: "+err.Error(), "")
		return
	}
	if !spec.Storable() {
		err := &exec.FieldError{Field: "traffic", Reason: "trace replay reads a file on the server and is not served over HTTP; run it with routesim -traffic"}
		writeErr(w, http.StatusBadRequest, err.Error(), err.Field)
		return
	}
	compiled, err := exec.Compile(spec)
	if err != nil {
		var fe *exec.FieldError
		field := ""
		if errors.As(err, &fe) {
			field = fe.Field
		}
		writeErr(w, http.StatusBadRequest, err.Error(), field)
		return
	}
	sse := wantsSSE(r)
	fp := spec.Fingerprint(s.cfg.BuildID)
	s.requests.Add(1)

	// Cache hit: serve the stored result, no simulation.
	res, ok, err := exec.Load(s.st, fp)
	if err != nil {
		fail(w, sse, http.StatusInternalServerError, err)
		return
	}
	if ok {
		reply(w, sse, Response{Result: res, Cached: true})
		return
	}

	// Miss: join an identical in-flight run, or lead a new one.
	s.mu.Lock()
	if fl, ok := s.inflight[fp]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		s.waitFlight(w, r, fl, sse)
		return
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[fp] = fl
	s.mu.Unlock()
	s.lead(w, r, compiled, fp, fl, sse)
}

// waitFlight blocks a coalesced request until the leader's run completes,
// then serves the shared outcome. SSE followers receive only the final
// result event — progress streams on the request that started the run.
func (s *Server) waitFlight(w http.ResponseWriter, r *http.Request, fl *flight, sse bool) {
	select {
	case <-fl.done:
	case <-r.Context().Done():
		return // client gone; the leader's run continues
	}
	if fl.err != nil {
		fail(w, sse, fl.code, fl.err)
		return
	}
	resp := fl.resp
	resp.Coalesced = true
	reply(w, sse, resp)
}

// lead executes the run for a fingerprint this request now owns: submit to
// the scheduler (429 on a full queue), run, store, publish to followers.
func (s *Server) lead(w http.ResponseWriter, r *http.Request, compiled *exec.Compiled, fp string, fl *flight, sse bool) {
	finish := func(resp Response, err error, code int) {
		fl.resp, fl.err, fl.code = resp, err, code
		s.mu.Lock()
		delete(s.inflight, fp)
		s.mu.Unlock()
		close(fl.done)
	}

	if cost := compiled.Cost; s.cfg.MaxCost > 0 && cost > s.cfg.MaxCost {
		s.rejected.Add(1)
		err := fmt.Errorf("spec estimated cost %.3g node-cycles exceeds this server's limit %.3g", cost, s.cfg.MaxCost)
		finish(Response{}, err, http.StatusRequestEntityTooLarge)
		writeErr(w, http.StatusRequestEntityTooLarge, err.Error(), "")
		return
	}

	// The run is decoupled from the request context: once admitted, it runs
	// to completion and is stored even if the leader disconnects, so the
	// work is never wasted and followers still get their result.
	runCtx := s.baseCtx
	var cancel context.CancelFunc
	if s.cfg.RunTimeout > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, s.cfg.RunTimeout)
	}

	var st *sseStream
	var prog *progressObserver
	if sse {
		st = newSSE(w)
		prog = newProgressObserver(s.cfg.ProgressEvery)
	}

	done := make(chan struct{})
	var res exec.Result
	var runErr error
	task := sweep.Task{
		Nodes:          compiled.Nodes(),
		Parallelizable: compiled.Parallelizable,
		Run: func(workers int) {
			defer close(done)
			if cancel != nil {
				defer cancel()
			}
			var o obs.Observer
			if prog != nil {
				o = prog
			}
			res, runErr = s.cfg.Exec(runCtx, compiled, workers, o)
		},
	}
	if err := s.sched.TrySubmit(task); err != nil {
		s.rejected.Add(1)
		if cancel != nil {
			cancel()
		}
		code := http.StatusServiceUnavailable
		if errors.Is(err, sweep.ErrQueueFull) {
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		}
		finish(Response{}, err, code)
		writeErr(w, code, err.Error(), "")
		return
	}
	s.executed.Add(1)

	if sse {
		st.event("queued", []byte(fmt.Sprintf(`{"fingerprint":%q}`, fp)))
		streamProgress(st, prog, done)
	} else {
		<-done
	}

	if runErr != nil {
		err := fmt.Errorf("simulation failed: %w", runErr)
		finish(Response{}, err, http.StatusUnprocessableEntity)
		fail(w, sse, http.StatusUnprocessableEntity, err)
		return
	}

	// Persist under the request fingerprint (computed with the server's
	// build id) so the next identical spec is a pure cache hit.
	res.FP = fp
	if err := exec.Save(s.st, fp, res); err != nil {
		finish(Response{}, err, http.StatusInternalServerError)
		fail(w, sse, http.StatusInternalServerError, err)
		return
	}
	resp := Response{Result: res}
	finish(resp, nil, 0)
	reply(w, sse, resp)
}

// reply serves a result: the JSON body, or the closing event of an SSE
// stream.
func reply(w http.ResponseWriter, sse bool, resp Response) {
	if sse {
		newSSE(w).event("result", mustJSON(resp))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// fail serves an error the same two ways.
func fail(w http.ResponseWriter, sse bool, code int, err error) {
	if sse {
		newSSE(w).event("error", mustJSON(errorBody{Error: err.Error()}))
		return
	}
	writeErr(w, code, err.Error(), "")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg, field string) {
	writeJSON(w, code, errorBody{Error: msg, Field: field})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return b
}
