package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's side of each call into the program, kept in memory, and
// written out when the workload ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Name    string `json:"name"`
	Cell    string `json:"cell,omitempty"`
	Round   int    `json:"round"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, which is how the
// untraced pass runs the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	round    int
	// SelfMs and TracedWallMs are filled in by write: each span name's summed
	// self time, next to the wall clock of the traced rounds they add up to.
	SelfMs       map[string]float64 `json:"self_ms"`
	TracedWallMs float64            `json:"traced_wall_ms"`
	Spans        []span             `json:"spans"`
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{t0: time.Now(), Workload: workload, Seed: seed}
}

// begin opens a span now and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent int, name, cell string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.Spans)
	t.Spans = append(t.Spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Round: t.round, StartNs: now, EndNs: now})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.Spans[id].EndNs = now
	t.mu.Unlock()
}

// child adds a finished span of the given length at the tail of its parent:
// the shape of "the last d of this call was the simulation", which is what
// Result.ElapsedSec and a reply's elapsed_sec say.
func (t *tracer) child(parent int, name, cell string, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.Spans[parent]
	start := p.EndNs - d.Nanoseconds()
	if start < p.StartNs {
		start = p.StartNs
	}
	t.Spans = append(t.Spans, span{ID: len(t.Spans), Parent: parent, Name: name, Cell: cell, Round: p.Round, StartNs: start, EndNs: p.EndNs})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its children cover. rootTotal is the summed
// duration of the root spans, the time the trace accounts for.
func (t *tracer) selfTimes() (self map[string]time.Duration, rootTotal time.Duration) {
	self = map[string]time.Duration{}
	if t == nil {
		return self, 0
	}
	covered := make([]int64, len(t.Spans))
	for _, s := range t.Spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for _, s := range t.Spans {
		d := s.EndNs - s.StartNs
		self[s.Name] += time.Duration(d - covered[s.ID])
		if s.Parent < 0 {
			rootTotal += time.Duration(d)
		}
	}
	return self, rootTotal
}

// sum returns the summed duration of the spans with the given name.
func (t *tracer) sum(name string) time.Duration {
	var d int64
	if t == nil {
		return 0
	}
	for _, s := range t.Spans {
		if s.Name == name {
			d += s.EndNs - s.StartNs
		}
	}
	return time.Duration(d)
}

// write stores the trace as JSON under dir. tracedWall is the wall clock of
// the rounds that were traced.
func (t *tracer) write(dir string, tracedWall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	self, _ := t.selfTimes()
	t.SelfMs = map[string]float64{}
	for name, d := range self {
		t.SelfMs[name] = ms(d)
	}
	t.TracedWallMs = ms(tracedWall)
	blob, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+t.Workload+".json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// sweepSink turns sweep.Run's progress events into one span per cell under
// the sweep.run span. With Jobs: 1 events arrive from one cell at a time,
// but the sink is called from the cell's goroutine, hence the lock.
type sweepSink struct {
	t      *tracer
	parent int
	mu     sync.Mutex
	open   map[string]int
}

func (s *sweepSink) OnSweepEvent(ev obs.SweepEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case obs.SweepJobStart:
		s.open[ev.Job] = s.t.begin(s.parent, "sweep.cell", ev.Job)
	case obs.SweepJobDone:
		s.t.end(s.open[ev.Job])
		delete(s.open, ev.Job)
	}
}
