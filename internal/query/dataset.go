package query

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/apm"
	"repro/internal/hashring"
	"repro/internal/store"
)

// Dataset is the deterministic APM measurement grid query cells run
// against: Hosts monitored hosts, each reporting MetricsPerHost metric
// series every IntervalSec seconds for Intervals reporting intervals
// starting at BaseTs. Each host's agent reports components of five metric
// kinds, named "<host>/Agent/Component<NNN>/<kind>" (see HostMetrics).
//
// Unlike the YCSB keyspace — hash-permuted so key ranges are uniformly
// loaded — the grid is loaded in global key order (a historical backfill:
// metric-major, timestamps ascending). Each node's hash-routed subset of an
// ordered stream is itself ordered, so node-local sstables come out
// key-striped and per-metric range scans actually prune tables by key
// range, which permuted YCSB keys never let Figure-driving cells observe.
type Dataset struct {
	Hosts          int
	MetricsPerHost int
	Intervals      int64
	IntervalSec    int64
	BaseTs         int64
}

// datasetBaseTs keeps timestamps epoch-like and fixed-width under the
// 12-digit key encoding.
const datasetBaseTs = 1_600_000_000

// SizeDataset shapes a grid holding about records measurements: the host
// and per-host series counts are fixed (8 hosts x 20 series — 4 components
// x 5 metric kinds), and history depth absorbs the dataset size, exactly
// how an APM store grows (§3: retention, not cardinality, dominates).
func SizeDataset(records int64) Dataset {
	d := Dataset{Hosts: 8, MetricsPerHost: 20, IntervalSec: 15, BaseTs: datasetBaseTs}
	d.Intervals = records / int64(d.Hosts*d.MetricsPerHost)
	if d.Intervals < 1 {
		d.Intervals = 1
	}
	return d
}

// Records is the number of measurements the grid holds.
func (d Dataset) Records() int64 {
	return int64(d.Hosts*d.MetricsPerHost) * d.Intervals
}

// LastTs is the newest timestamp in the grid — the "now" dashboards anchor
// their windows to.
func (d Dataset) LastTs() int64 {
	return d.BaseTs + (d.Intervals-1)*d.IntervalSec
}

// HostName names host h.
func (d Dataset) HostName(h int) string { return fmt.Sprintf("Host%03d", h) }

// HostMetrics returns host h's metric names in key order.
func (d Dataset) HostMetrics(h int) []string {
	kinds := []string{"AverageResponseTime", "ConnectionCount", "CPUUtilization", "ErrorRate", "HeapUsage"}
	host := d.HostName(h)
	out := make([]string, 0, d.MetricsPerHost)
	for i := 0; i < d.MetricsPerHost; i++ {
		out = append(out, fmt.Sprintf("%s/Agent/Component%03d/%s", host, i/len(kinds), kinds[i%len(kinds)]))
	}
	sort.Strings(out)
	return out
}

// Range is one per-metric scan range: the [From, To] time window of a
// single metric series — the unit the dashboard's multi-series panel seeks
// per displayed metric.
type Range struct {
	Metric   string
	From, To int64
}

// HostRanges builds the per-metric scan ranges for a host dashboard panel
// over [from, to]: one range per metric series, each a separate seek —
// which is what lets the LSM scan path prune sstables per series.
func (d Dataset) HostRanges(h int, from, to int64) []Range {
	metrics := d.HostMetrics(h)
	out := make([]Range, len(metrics))
	for i, m := range metrics {
		out[i] = Range{Metric: m, From: from, To: to}
	}
	return out
}

// Window clamps a trailing window of win seconds ending at LastTs to the
// grid's extent.
func (d Dataset) Window(win int64) (from, to int64) {
	to = d.LastTs()
	from = to - win + 1
	if from < d.BaseTs {
		from = d.BaseTs
	}
	return from, to
}

// Load populates the store with the whole grid in global key order, on up
// to fanout concurrent workers (see store.LoadAll; the result does not
// depend on fanout). Values are a deterministic hash of (metric,
// timestamp) — integer-derived, so every platform computes bit-identical
// floats.
func (d Dataset) Load(s store.Store, fanout int) {
	metrics := make([]string, 0, d.Hosts*d.MetricsPerHost)
	for h := 0; h < d.Hosts; h++ {
		metrics = append(metrics, d.HostMetrics(h)...)
	}
	sort.Strings(metrics)
	store.LoadAll(s, store.Records{
		Count:      int64(len(metrics)) * d.Intervals,
		NewBuilder: func() store.Builder { return &gridBuilder{d: d, metrics: metrics} },
	}, fanout)
}

// gridBuilder builds the grid's records in global key order: record i is
// interval i % Intervals of the (i / Intervals)-th metric in key order.
type gridBuilder struct {
	d       Dataset
	metrics []string // sorted; shared read-only by every worker
	fields  store.Fields
	buf     []byte
}

func (b *gridBuilder) AppendKey(dst []byte, i int64) []byte {
	m := apm.Measurement{
		Metric:    b.metrics[i/b.d.Intervals],
		Timestamp: b.d.BaseTs + i%b.d.Intervals*b.d.IntervalSec,
	}
	return m.AppendKey(dst)
}

func (b *gridBuilder) Fields(i int64) store.Fields {
	m := b.d.synth(b.metrics[i/b.d.Intervals], i%b.d.Intervals)
	b.fields, b.buf = m.AppendFields(b.fields[:0], b.buf[:0])
	return b.fields
}

// synth builds interval k's measurement for metric: value in [0, 100] from
// a mixed integer hash, min/max the fixed envelope agents report.
func (d Dataset) synth(metric string, k int64) apm.Measurement {
	ts := d.BaseTs + k*d.IntervalSec
	f := fnv.New64a()
	f.Write([]byte(metric))
	// The finalizer decorrelates consecutive timestamps.
	h := hashring.Fmix64(f.Sum64() ^ uint64(ts))
	v := float64(h%1001) / 10
	return apm.Measurement{
		Metric:    metric,
		Value:     v,
		Min:       v * 0.8,
		Max:       v * 1.25,
		Timestamp: ts,
		Duration:  d.IntervalSec,
	}
}
