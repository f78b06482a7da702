package daemon

import (
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// sseStream writes Server-Sent Events. newSSE only sets headers; the
// implicit 200 goes out with the first event, so it is safe to construct
// one lazily on either the progress or the error path.
type sseStream struct {
	w  http.ResponseWriter
	fl http.Flusher
}

func newSSE(w http.ResponseWriter) *sseStream {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	fl, _ := w.(http.Flusher)
	return &sseStream{w: w, fl: fl}
}

func (s *sseStream) event(name string, data []byte) {
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	if s.fl != nil {
		s.fl.Flush()
	}
}

// wantsSSE reports whether the request asked for a progress stream, either
// by Accept header or the ?stream=sse query knob (curl-friendly).
func wantsSSE(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "sse" {
		return true
	}
	return r.Header.Get("Accept") == "text/event-stream"
}

// progressEvent is the SSE "progress" payload: the cheap counters of the
// merged per-cycle snapshot.
type progressEvent struct {
	Cycle     int64 `json:"cycle"`
	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	InFlight  int64 `json:"in_flight"`
}

// progressObserver taps the run's OnCycle probe every `every` cycles and
// hands events to the SSE writer goroutine over a buffered channel. Sends
// never block the simulation: when the client cannot keep up, events are
// dropped (progress is advisory; the result event is authoritative).
type progressObserver struct {
	obs.Base
	every int64
	ch    chan progressEvent
}

func newProgressObserver(every int64) *progressObserver {
	return &progressObserver{every: every, ch: make(chan progressEvent, 64)}
}

func (p *progressObserver) OnCycle(cycle int64, snap *obs.Snapshot) {
	if cycle%p.every != 0 {
		return
	}
	ev := progressEvent{
		Cycle:     cycle,
		Injected:  snap.Counter(obs.CInjected),
		Delivered: snap.Counter(obs.CDelivered),
		InFlight:  snap.Gauge(obs.GInFlight),
	}
	select {
	case p.ch <- ev:
	default: // slow consumer: drop, never stall the engine
	}
}

// streamProgress relays progress events until the run signals done, then
// drains whatever is already buffered so the stream ends in order.
func streamProgress(st *sseStream, prog *progressObserver, done <-chan struct{}) {
	for {
		select {
		case ev := <-prog.ch:
			st.event("progress", mustJSON(ev))
		case <-done:
			for {
				select {
				case ev := <-prog.ch:
					st.event("progress", mustJSON(ev))
				default:
					return
				}
			}
		}
	}
}
