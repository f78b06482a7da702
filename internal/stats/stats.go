// Package stats provides the latency statistics used by the experiment
// harness and the routesim tool: mean and variance from exact integer sums,
// exact percentiles over a bounded latency domain, and a text histogram. The
// obs.Latency observer wraps a Collector behind the Observer interface.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// Collector accumulates per-delivery latencies. It is safe for concurrent
// use. It keeps integer sums and derives the mean and the deviation when
// they are read, so what it reports does not depend on the order the
// deliveries came in.
type Collector struct {
	mu sync.Mutex

	count  int64
	sum    int64 // of the latencies
	sumSq  int64 // of their squares: exact while it fits, e.g. 3e9 deliveries of latency 50 000
	min    int64
	max    int64
	counts map[int64]int64 // exact latency -> occurrences
	byHops map[int]int64   // hop count -> deliveries
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{min: math.MaxInt64, counts: make(map[int64]int64), byHops: make(map[int]int64)}
}

// OnDeliver records one delivery; its signature is the Observer probe's.
func (c *Collector) OnDeliver(pkt core.Packet, latency int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	c.sum += latency
	c.sumSq += latency * latency
	if latency < c.min {
		c.min = latency
	}
	if latency > c.max {
		c.max = latency
	}
	c.counts[latency]++
	c.byHops[pkt.HopCount()]++
}

// Count returns the number of recorded deliveries.
func (c *Collector) Count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Mean returns the average latency.
func (c *Collector) Mean() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return 0
	}
	return float64(c.sum) / float64(c.count)
}

// StdDev returns the sample standard deviation of the latencies. Its
// numerator, count·Σl² − (Σl)², is formed exactly in 128 bits.
func (c *Collector) StdDev() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count < 2 {
		return 0
	}
	n, s := uint64(c.count), c.sum
	if s < 0 {
		s = -s
	}
	hi1, lo1 := bits.Mul64(n, uint64(c.sumSq))
	hi2, lo2 := bits.Mul64(uint64(s), uint64(s))
	lo, borrow := bits.Sub64(lo1, lo2, 0)
	hi, _ := bits.Sub64(hi1, hi2, borrow)
	return math.Sqrt((float64(hi)*0x1p64 + float64(lo)) / (float64(n) * float64(n-1)))
}

// Min and Max return the latency extremes (0 if nothing was recorded).
func (c *Collector) Min() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return 0
	}
	return c.min
}

// Max returns the largest recorded latency.
func (c *Collector) Max() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

// Percentile returns the smallest latency l such that at least p (in
// [0,100]) percent of deliveries had latency <= l.
func (c *Collector) Percentile(p float64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	need := int64(math.Ceil(p / 100 * float64(c.count)))
	if need < 1 {
		need = 1
	}
	lats := make([]int64, 0, len(c.counts))
	for l := range c.counts {
		lats = append(lats, l)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var seen int64
	for _, l := range lats {
		seen += c.counts[l]
		if seen >= need {
			return l
		}
	}
	return lats[len(lats)-1]
}

// HopHistogram returns the (hops, deliveries) pairs sorted by hop count.
func (c *Collector) HopHistogram() [][2]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	hops := make([]int, 0, len(c.byHops))
	for h := range c.byHops {
		hops = append(hops, h)
	}
	sort.Ints(hops)
	out := make([][2]int64, len(hops))
	for i, h := range hops {
		out[i] = [2]int64{int64(h), c.byHops[h]}
	}
	return out
}

// Histogram renders a text histogram of latencies with the given number of
// equal-width buckets (at least 1).
func (c *Collector) Histogram(buckets int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return "(no deliveries)\n"
	}
	if buckets < 1 {
		buckets = 1
	}
	span := c.max - c.min + 1
	width := (span + int64(buckets) - 1) / int64(buckets)
	if width < 1 {
		width = 1
	}
	fill := make([]int64, buckets)
	var peak int64
	for l, n := range c.counts {
		b := int((l - c.min) / width)
		if b >= buckets {
			b = buckets - 1
		}
		fill[b] += n
		if fill[b] > peak {
			peak = fill[b]
		}
	}
	var sb strings.Builder
	for b := 0; b < buckets; b++ {
		lo := c.min + int64(b)*width
		hi := lo + width - 1
		bar := 0
		if peak > 0 {
			bar = int(40 * fill[b] / peak)
		}
		fmt.Fprintf(&sb, "%6d-%-6d %8d %s\n", lo, hi, fill[b], strings.Repeat("#", bar))
	}
	return sb.String()
}

// Summary renders a one-line summary.
func (c *Collector) Summary() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%d p50=%d p95=%d p99=%d max=%d",
		c.Count(), c.Mean(), c.StdDev(), c.Min(),
		c.Percentile(50), c.Percentile(95), c.Percentile(99), c.Max())
}
