package obs

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// Observer receives the three probes of a simulation run — the one tap the
// engines offer: attach one via Config.Observer and the engine enables its
// metrics core for the run.
//
// Contract:
//
//   - OnDeliver is called once per delivery with the packet and its
//     measured latency (cycles since network entry). The engine buffers a
//     cycle's deliveries per worker and replays them at the end of the
//     cycle, before OnCycle, on the goroutine that steps the run, so the
//     probes of one run never overlap. Deliveries come in worker order, so
//     their order within a cycle depends on Workers; their set does not.
//     Observers are read-only taps; the engine's results must be
//     bit-identical with or without them.
//   - OnCycle is called once at the end of every simulated cycle, outside
//     the parallel phases, with the merged metric snapshot. The snapshot
//     pointer is only valid during the call; copy it to retain it.
//   - OnDone is called exactly once when the run ends — normally, by
//     context cancellation, or with an error (deadlock, cycle budget) —
//     with the final snapshot.
type Observer interface {
	OnDeliver(pkt core.Packet, latency int64)
	OnCycle(cycle int64, snap *Snapshot)
	OnDone(snap *Snapshot)
}

// Base is a no-op Observer for embedding: override only the probes you need.
type Base struct{}

func (Base) OnDeliver(core.Packet, int64) {}
func (Base) OnCycle(int64, *Snapshot)     {}
func (Base) OnDone(*Snapshot)             {}

// MultiObserver fans every probe out to a list of observers, in order.
type MultiObserver []Observer

// Multi composes observers into one, dropping nils. It returns nil when
// nothing remains and the single observer unwrapped when one does.
func Multi(os ...Observer) Observer {
	var m MultiObserver
	for _, o := range os {
		if o != nil {
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

func (m MultiObserver) OnDeliver(pkt core.Packet, latency int64) {
	for _, o := range m {
		o.OnDeliver(pkt, latency)
	}
}

func (m MultiObserver) OnCycle(cycle int64, snap *Snapshot) {
	for _, o := range m {
		o.OnCycle(cycle, snap)
	}
}

func (m MultiObserver) OnDone(snap *Snapshot) {
	for _, o := range m {
		o.OnDone(snap)
	}
}

// OnDeadlock forwards the watchdog dump to every member that implements
// DeadlockObserver, making MultiObserver itself a DeadlockObserver.
func (m MultiObserver) OnDeadlock(dump *DeadlockDump) {
	for _, o := range m {
		if d, ok := o.(DeadlockObserver); ok {
			d.OnDeadlock(dump)
		}
	}
}

// Latency is the latency-collection observer: it absorbs stats.Collector
// (mean and variance from integer sums, exact percentiles, histograms)
// behind the Observer interface. What it reports is independent of the
// delivery order, so it is bit-identical at every worker count.
type Latency struct {
	*stats.Collector
}

// NewLatency returns an empty latency observer.
func NewLatency() *Latency { return &Latency{Collector: stats.NewCollector()} }

func (l *Latency) OnCycle(int64, *Snapshot) {}
func (l *Latency) OnDone(*Snapshot)         {}

// Sample is one point of the Sampler's time series, derived entirely from
// the merged snapshot (so the series is bit-deterministic up to Canonical).
type Sample struct {
	Cycle        int64 `json:"cycle"`
	QueueOcc     int64 `json:"queue_occupancy"`
	MaxQueue     int64 `json:"max_queue"`
	InFlight     int64 `json:"in_flight"`
	Injected     int64 `json:"injected"`
	Delivered    int64 `json:"delivered"`
	Backpressure int64 `json:"inj_backpressure"`
}

// Sampler records a queue-occupancy time series every Every cycles (plus a
// final point at OnDone), the signal behind the paper's observation that
// congestion concentrates without dynamic links.
type Sampler struct {
	Every   int64
	Samples []Sample
}

// NewSampler returns a sampler with the given period (minimum 1).
func NewSampler(every int64) *Sampler {
	if every < 1 {
		every = 1
	}
	return &Sampler{Every: every}
}

func (s *Sampler) OnDeliver(core.Packet, int64) {}

func (s *Sampler) OnCycle(cycle int64, snap *Snapshot) {
	if cycle%s.Every == 0 {
		s.record(snap)
	}
}

func (s *Sampler) OnDone(snap *Snapshot) {
	if n := len(s.Samples); n == 0 || s.Samples[n-1].Cycle != snap.Cycle {
		s.record(snap)
	}
}

func (s *Sampler) record(snap *Snapshot) {
	s.Samples = append(s.Samples, Sample{
		Cycle:        snap.Cycle,
		QueueOcc:     snap.Gauges[GQueueOccupancy],
		MaxQueue:     snap.Gauges[GMaxQueue],
		InFlight:     snap.Gauges[GInFlight],
		Injected:     snap.Counters[CInjected],
		Delivered:    snap.Counters[CDelivered],
		Backpressure: snap.Counters[CInjBackpressure],
	})
}
