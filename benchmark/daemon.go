package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/store"
)

// daemonSpec is one request body with what the benchmark knows about it.
type daemonSpec struct {
	cell  string
	spec  exec.RunSpec
	body  []byte
	nodes int
}

// daemonSpecs generates n distinct specs from the seed: static 4-packet
// runs over five regular topologies with varied seeds, and `graphs` dynamic
// runs on random-regular graphs, spread evenly through the list. The first
// `subset` regular specs plus all graph specs are the warm phase's set.
func daemonSpecs(sc scale, seed int64) (all, warm []daemonSpec, err error) {
	regular := []struct {
		algo  string
		nodes int
	}{
		{"hypercube-adaptive:6", 64}, {"hypercube-adaptive:8", 256}, {"hypercube-adaptive:10", 1024},
		{"mesh-adaptive:16x16", 256}, {"torus-adaptive:8x8", 64},
	}
	every := sc.coldSpecs / sc.graphSpecs
	graphs, regularWarm := 0, 0
	for i := 0; i < sc.coldSpecs; i++ {
		var d daemonSpec
		isGraph := i%every == every-1 && graphs < sc.graphSpecs
		if isGraph {
			d.cell = fmt.Sprintf("post/%03d-graph", i)
			d.nodes = sc.graphNodes
			d.spec = exec.RunSpec{
				Algo:     "graph-adaptive",
				Topology: graphTopology(sc.graphNodes, seed*7919+int64(i)),
				Seed:     seed, Inject: "dynamic", Lambda: 0.05, Warmup: 100, Measure: 200,
			}
			graphs++
		} else {
			t := regular[i%len(regular)]
			d.cell = fmt.Sprintf("post/%03d-%s", i, strings.ReplaceAll(t.algo, ":", "-"))
			d.nodes = t.nodes
			d.spec = exec.RunSpec{Algo: t.algo, Seed: seed*10007 + int64(i), Packets: 4}
		}
		if d.body, err = json.Marshal(d.spec); err != nil {
			return nil, nil, err
		}
		all = append(all, d)
		switch {
		case isGraph:
			warm = append(warm, d)
		case regularWarm < sc.warmSubset-sc.graphSpecs:
			warm = append(warm, d)
			regularWarm++
		}
	}
	return all, warm, nil
}

// daemonEnv is routesimd's stack as cmd/routesimd wires it: a file-backed
// store, the daemon with one execution slot, and an HTTP listener on
// loopback, driven over a single kept-alive connection.
type daemonEnv struct {
	st     *store.Store
	srv    *daemon.Server
	hs     *httptest.Server
	client *http.Client
	setup  time.Duration
}

func newDaemonEnv(path string) (*daemonEnv, error) {
	t0 := time.Now()
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := daemon.New(daemon.Config{Store: st, Jobs: 1, Budget: 1})
	if err != nil {
		st.Close()
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	e := &daemonEnv{st: st, srv: srv, hs: hs, setup: time.Since(t0)}
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return e, nil
}

func (e *daemonEnv) close() {
	e.client.CloseIdleConnections()
	e.hs.Close()
	e.srv.Close()
	e.st.Close()
}

// reply is the part of the daemon's response the benchmark reads.
type reply struct {
	Cached     bool            `json:"cached"`
	Metrics    json.RawMessage `json:"metrics"`
	ElapsedSec float64         `json:"elapsed_sec"`
}

// post sends one spec and waits for the whole reply: the closed loop of a
// script calling routesimd. wantCached says which kind of answer is
// correct here; the other kind is a failure.
func (e *daemonEnv) post(tr *tracer, d daemonSpec, wantCached bool) op {
	out := op{cell: d.cell, golden: true, paperErr: -1}
	id := tr.begin(-1, "http.post", d.cell)
	t0 := time.Now()
	resp, err := e.client.Post(e.hs.URL+"/v1/sim", "application/json", bytes.NewReader(d.body))
	var blob []byte
	if err == nil {
		blob, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	out.wall = time.Since(t0)
	tr.end(id)
	if err != nil {
		out.fail = err.Error()
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.fail = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
		return out
	}
	var r reply
	var m sim.Metrics
	if err := json.Unmarshal(blob, &r); err != nil {
		out.fail = "reply: " + err.Error()
		return out
	}
	if err := json.Unmarshal(r.Metrics, &m); err != nil {
		out.fail = "reply metrics: " + err.Error()
		return out
	}
	if !r.Cached {
		tr.child(id, "sim.run", d.cell, time.Duration(r.ElapsedSec*float64(time.Second)))
	}
	out.nodeCycles = float64(d.nodes) * float64(m.Cycles)
	out.digest, out.fail = checkMetrics(m)
	if out.fail == "" && r.Cached != wantCached {
		out.fail = fmt.Sprintf("cached=%v, want %v", r.Cached, wantCached)
	}
	return out
}

// counters reads the daemon's and the store's own counters off /metrics,
// the only place the daemon exposes them.
func (e *daemonEnv) counters() layerCounts {
	c := e.st.Stats().Counts()
	out := layerCounts{hits: float64(c.Hits), misses: float64(c.Misses)}
	resp, err := e.client.Get(e.hs.URL + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body) // a short read only loses counters, which then read 0
	prom := map[string]float64{}
	for _, line := range strings.Split(string(blob), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			prom[name] = v
		}
	}
	out.requests = prom["repro_daemon_requests_total"]
	out.executed = prom["repro_daemon_executed_total"]
	out.rejected = prom["repro_daemon_rejected_total"]
	return out
}

// prepareDaemonCold: every round opens a fresh store and daemon (that
// set-up is timed and reported per round) and POSTs each spec once.
func prepareDaemonCold(sc scale, seed int64, dir string) (*instance, error) {
	all, _, err := daemonSpecs(sc, seed)
	if err != nil {
		return nil, err
	}
	var total layerCounts
	round := func(r int, tr *tracer) []op {
		path := filepath.Join(dir, fmt.Sprintf("cold-%d.jsonl", r))
		env, err := newDaemonEnv(path)
		if err != nil {
			return []op{{cell: "daemon", fail: err.Error(), paperErr: -1}}
		}
		defer os.Remove(path)
		defer env.close()
		ops := make([]op, 0, len(all))
		for i, d := range all {
			o := env.post(tr, d, false)
			if i == 0 {
				o.setup = env.setup
			}
			ops = append(ops, o)
		}
		total = total.plus(env.counters())
		return ops
	}
	return &instance{round: round, counters: func() layerCounts { return total }, close: func() {}}, nil
}

// prepareDaemonWarm opens the stack once over a store file that already
// holds the warm set's results (a restarted daemon replaying its journal),
// which is the timed set-up; rounds then only ever hit.
func prepareDaemonWarm(sc scale, seed int64, dir string) (*instance, error) {
	_, warm, err := daemonSpecs(sc, seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "warm.jsonl")
	if _, err := os.Stat(path); err != nil {
		// First repetition: fill the file through the daemon itself.
		env, err := newDaemonEnv(path)
		if err != nil {
			return nil, err
		}
		for _, d := range warm {
			if o := env.post(nil, d, false); o.fail != "" {
				env.close()
				return nil, fmt.Errorf("priming %s: %s", d.cell, o.fail)
			}
		}
		env.close()
	}
	env, err := newDaemonEnv(path)
	if err != nil {
		return nil, err
	}
	round := func(_ int, tr *tracer) []op {
		ops := make([]op, 0, sc.warmPosts)
		for i := 0; i < sc.warmPosts; i++ {
			ops = append(ops, env.post(tr, warm[i%len(warm)], true))
		}
		return ops
	}
	return &instance{setup: env.setup, round: round, counters: env.counters, close: env.close}, nil
}
