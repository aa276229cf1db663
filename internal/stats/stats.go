// Package stats provides the latency/throughput accounting used by the
// benchmark framework: log-bucketed histograms (HdrHistogram-style) and
// per-operation-type summaries.
package stats

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// bucketsPerDecade controls histogram resolution: values within a decade
// are split geometrically into this many buckets (~5% relative error).
const bucketsPerDecade = 48

// Histogram records durations in logarithmic buckets from 1µs to ~1000s.
type Histogram struct {
	counts []int64
	n      int64
	sum    sim.Time
	min    sim.Time
	max    sim.Time
}

const histBuckets = 9 * bucketsPerDecade // 1e3 ns .. 1e12 ns

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, histBuckets), min: math.MaxInt64}
}

func bucketOf(d sim.Time) int {
	if d < sim.Microsecond {
		return 0
	}
	// log10(d/1µs) * bucketsPerDecade
	b := int(math.Log10(float64(d)/float64(sim.Microsecond)) * bucketsPerDecade)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketValue returns a representative duration for bucket i (geometric
// midpoint).
func bucketValue(i int) sim.Time {
	exp := (float64(i) + 0.5) / bucketsPerDecade
	return sim.Time(float64(sim.Microsecond) * math.Pow(10, exp))
}

// Record adds one observation.
func (h *Histogram) Record(d sim.Time) {
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// N returns the observation count.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the exact arithmetic mean.
func (h *Histogram) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Time(h.n)
}

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() sim.Time { return h.max }

// Quantile returns the approximate q-quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	target := int64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.n > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// OpKind labels the operation types of the benchmark.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpInsert
	OpUpdate
	OpScan
	numOps
)

// String returns the kind's name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpScan:
		return "SCAN"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Collector aggregates per-kind latencies and overall throughput over a
// measurement window.
type Collector struct {
	hists    [numOps]*Histogram
	errors   int64
	timeouts int64
	start    sim.Time
	end      sim.Time
	started  bool
	totalOps int64
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	c := &Collector{}
	for i := range c.hists {
		c.hists[i] = NewHistogram()
	}
	return c
}

// Begin marks the start of the measurement window.
func (c *Collector) Begin(now sim.Time) { c.start = now; c.started = true }

// Finish marks the end of the measurement window.
func (c *Collector) Finish(now sim.Time) { c.end = now }

// Active reports whether the window is open.
func (c *Collector) Active() bool { return c.started && c.end == 0 }

// Record adds a completed operation.
func (c *Collector) Record(kind OpKind, latency sim.Time) {
	if !c.Active() {
		return
	}
	c.hists[kind].Record(latency)
	c.totalOps++
}

// RecordError counts a failed operation.
func (c *Collector) RecordError() {
	if !c.Active() {
		return
	}
	c.errors++
}

// RecordTimeout counts an operation that completed but blew its SLO
// deadline; it is excluded from the success histograms and throughput.
func (c *Collector) RecordTimeout() {
	if !c.Active() {
		return
	}
	c.timeouts++
}

// Ops returns the number of successful operations recorded.
func (c *Collector) Ops() int64 { return c.totalOps }

// Errors returns the number of failed operations.
func (c *Collector) Errors() int64 { return c.errors }

// Timeouts returns the number of SLO-violating operations.
func (c *Collector) Timeouts() int64 { return c.timeouts }

// Window returns the measurement duration.
func (c *Collector) Window() sim.Time {
	if c.end > c.start {
		return c.end - c.start
	}
	return 0
}

// Throughput returns successful operations per second over the window.
func (c *Collector) Throughput() float64 {
	w := c.Window()
	if w == 0 {
		return 0
	}
	return float64(c.totalOps) / w.Seconds()
}

// Hist returns the histogram for one operation kind.
func (c *Collector) Hist(kind OpKind) *Histogram { return c.hists[kind] }

// MeanLatency returns the mean latency for one kind (0 if none recorded).
func (c *Collector) MeanLatency(kind OpKind) sim.Time { return c.hists[kind].Mean() }

// Summary is a printable digest of a run.
type Summary struct {
	Throughput float64
	Ops        int64
	Errors     int64
	Timeouts   int64
	Read       LatencySummary
	Insert     LatencySummary
	Update     LatencySummary
	Scan       LatencySummary
}

// LatencySummary digests one operation kind.
type LatencySummary struct {
	N    int64
	Mean sim.Time
	P50  sim.Time
	P95  sim.Time
	P99  sim.Time
	Max  sim.Time
}

func summarize(h *Histogram) LatencySummary {
	return LatencySummary{
		N:    h.N(),
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		Max:  h.Max(),
	}
}

// Summarize digests the collector.
func (c *Collector) Summarize() Summary {
	return Summary{
		Throughput: c.Throughput(),
		Ops:        c.totalOps,
		Errors:     c.errors,
		Timeouts:   c.timeouts,
		Read:       summarize(c.hists[OpRead]),
		Insert:     summarize(c.hists[OpInsert]),
		Update:     summarize(c.hists[OpUpdate]),
		Scan:       summarize(c.hists[OpScan]),
	}
}
