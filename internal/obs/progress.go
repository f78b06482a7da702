package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// SweepEventKind names the progress probes of a sweep orchestrator run.
type SweepEventKind int

// The sweep progress probes: a cell starting, a cell finishing, a cell
// served from the result store, and the whole sweep completing.
const (
	SweepJobStart SweepEventKind = iota
	SweepJobDone
	SweepJobCached
	SweepDone
)

// SweepEvent is one progress event of a sweep run. It is the sweep-level
// sibling of the per-cycle Observer probes: the orchestrator emits one event
// per cell transition instead of one per simulated cycle, carrying enough of
// the cost model to render a live status line with an ETA.
type SweepEvent struct {
	Kind    SweepEventKind
	Job     string // cell id ("table9/n12"); empty for SweepDone
	Workers int    // per-simulation workers granted to the cell

	Done       int     // completed cells so far, including cached ones
	Total      int     // total cells in the sweep
	CostDone   float64 // completed estimated cost (node-cycles)
	CostTotal  float64 // total estimated cost of the sweep
	ElapsedSec float64 // wall-clock since the sweep started
	ETASec     float64 // cost-model estimate of the remaining time; <0 unknown
}

// SweepSink receives sweep progress events. Like Observer, sinks are
// read-only taps: the orchestrator's results must be identical with or
// without one attached. Events may be emitted from concurrent cell
// goroutines; implementations must be safe for parallel use.
type SweepSink interface {
	OnSweepEvent(ev SweepEvent)
}

// SweepProgress renders sweep events as live status lines. It writes at
// most one line per event, serialized by an internal mutex, and is meant to
// be pointed at stderr so the deterministic table output on stdout stays
// clean for diffing.
type SweepProgress struct {
	W io.Writer

	mu sync.Mutex
}

// NewSweepProgress returns a progress renderer writing to w.
func NewSweepProgress(w io.Writer) *SweepProgress { return &SweepProgress{W: w} }

// OnSweepEvent implements SweepSink.
func (p *SweepProgress) OnSweepEvent(ev SweepEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pct := 0.0
	if ev.CostTotal > 0 {
		pct = 100 * ev.CostDone / ev.CostTotal
	}
	switch ev.Kind {
	case SweepJobStart:
		fmt.Fprintf(p.W, "[%3d/%3d %3.0f%%] start  %-24s w=%d\n",
			ev.Done, ev.Total, pct, ev.Job, ev.Workers)
	case SweepJobDone:
		fmt.Fprintf(p.W, "[%3d/%3d %3.0f%%] done   %-24s elapsed %s eta %s\n",
			ev.Done, ev.Total, pct, ev.Job, fmtSec(ev.ElapsedSec), fmtSec(ev.ETASec))
	case SweepJobCached:
		fmt.Fprintf(p.W, "[%3d/%3d %3.0f%%] cached %-24s (served from the store)\n",
			ev.Done, ev.Total, pct, ev.Job)
	case SweepDone:
		fmt.Fprintf(p.W, "[%3d/%3d 100%%] sweep done in %s\n",
			ev.Done, ev.Total, fmtSec(ev.ElapsedSec))
	}
}

// fmtSec renders a duration in seconds compactly; negative means unknown.
func fmtSec(s float64) string {
	if s < 0 {
		return "?"
	}
	return time.Duration(s * float64(time.Second)).Round(100 * time.Millisecond).String()
}
