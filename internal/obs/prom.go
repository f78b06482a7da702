package obs

import (
	"fmt"
	"io"
	"net/http"
)

// promHelp documents each metric family for the exposition format.
var (
	counterHelp = [NumCounters]string{
		"Injection attempts (all cycles)",
		"Injection attempts refused by an occupied injection queue",
		"Packets that entered an injection queue",
		"Packets consumed at their destination",
		"Packet movements (progress events)",
		"Movements over dynamic links",
		"Packets transferred across a physical link",
		"Phase (a) scans that found no admissible free buffer",
		"Phase (a) scans skipped by the wait-mask cache",
		"Arrivals posted to a cross-shard mail lane",
		"Packets forwarded by virtual cut-through",
		"Non-minimal moves taken because faults emptied the candidate set",
		"Packets dropped by fault handling",
		"Injections deferred by retry-with-backoff under faults",
		"Wall-clock ns in the injection phase (PhaseProf only)",
		"Wall-clock ns in node phase (a) (PhaseProf only)",
		"Wall-clock ns in node phase (b) (PhaseProf only)",
		"Wall-clock ns in the link phase (PhaseProf only)",
		"Wall-clock ns in the per-cycle stats merge (PhaseProf only)",
		"Wall-clock ns in the rest of the cycle (PhaseProf only)",
	}
	gaugeHelp = [NumGauges]string{
		"Packets currently held in central queues",
		"Packets anywhere in the network",
		"Maximum single-queue occupancy observed",
		"Nodes on the active worklist",
	}
	histHelp = [NumHists]string{
		"Per-packet age at delivery, in cycles",
		"Central-queue occupancy observed at each push",
	}
)

// WriteProm renders the snapshot in the Prometheus text exposition format,
// under the metric namespace "repro_". Counters gain a _total suffix;
// histograms are rendered as cumulative le-labelled buckets with _sum and
// _count, per the Prometheus histogram convention.
func (s *Snapshot) WriteProm(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP repro_cycles_total Completed simulation cycles\n# TYPE repro_cycles_total counter\nrepro_cycles_total %d\n", s.Cycle); err != nil {
		return err
	}
	for c := CounterID(0); c < NumCounters; c++ {
		name := "repro_" + c.String() + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, counterHelp[c], name, name, s.Counters[c]); err != nil {
			return err
		}
	}
	for g := GaugeID(0); g < NumGauges; g++ {
		name := "repro_" + g.String()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			name, gaugeHelp[g], name, name, s.Gauges[g]); err != nil {
			return err
		}
	}
	for h := HistID(0); h < NumHists; h++ {
		name := "repro_" + h.String()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, histHelp[h], name); err != nil {
			return err
		}
		cum := int64(0)
		for b := 0; b < HistBuckets; b++ {
			cum += s.Hists[h][b]
			le := "+Inf"
			if up := BucketUpper(b); up >= 0 {
				le = fmt.Sprint(up)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, s.HistSum[h], name, s.HistCount[h]); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the core's latest published
// snapshot in Prometheus text format: mount it at /metrics. It is safe to
// scrape while a run executes.
func (c *Core) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := c.Latest()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap.WriteProm(w)
	})
}
