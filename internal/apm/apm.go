// Package apm implements the application performance management data model
// of the paper (§2–§3): measurements with a metric name, value, min/max
// aggregates, timestamp and duration (Fig 2), agents that report thousands
// of metrics at a fixed interval, and the two online query types the use
// case needs — sliding-window aggregates over one metric and over a group
// of metrics.
package apm

import (
	"fmt"
	"iter"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/store"
)

// Measurement is one reported data point (paper Fig 2).
type Measurement struct {
	Metric    string  // e.g. "HostA/AgentX/ServletB/AverageResponseTime"
	Value     float64 // aggregated value over the reporting interval
	Min       float64
	Max       float64
	Timestamp int64 // unix seconds
	Duration  int64 // aggregation window, seconds
}

// Key encodes the measurement's storage key: metric identity plus
// zero-padded timestamp, so that per-metric scans return time ranges in
// order. APM data is append-only (§3), so the key is unique per interval.
// This is the ingest pipeline's per-measurement hot path, so the key is
// assembled into one sized buffer instead of going through fmt (the format
// is exactly "%s|%012d").
func (m Measurement) Key() string {
	b := make([]byte, 0, len(m.Metric)+1+timestampWidth)
	b = append(b, m.Metric...)
	b = append(b, '|')
	b = appendPaddedInt(b, m.Timestamp)
	return string(b)
}

// timestampWidth is the zero-padded timestamp field width; unix seconds fit
// in 12 digits until the year 33658.
const timestampWidth = 12

// appendPaddedInt appends ts zero-padded to timestampWidth digits,
// matching fmt's %012d (sign counts toward the width; wider values extend
// past it).
func appendPaddedInt(b []byte, ts int64) []byte {
	if ts < 0 {
		b = append(b, '-')
		return appendUintPadded(b, uint64(-ts), timestampWidth-1)
	}
	return appendUintPadded(b, uint64(ts), timestampWidth)
}

func appendUintPadded(b []byte, v uint64, width int) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = '0' + byte(v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for pad := width - (len(tmp) - i); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, tmp[i:]...)
}

// Fields encodes the measurement payload as the record's value fields.
func (m Measurement) Fields() store.Fields {
	return store.Fields{
		[]byte(fmt.Sprintf("%g", m.Value)),
		[]byte(fmt.Sprintf("%g", m.Min)),
		[]byte(fmt.Sprintf("%g", m.Max)),
		[]byte(strconv.FormatInt(m.Timestamp, 10)),
		[]byte(strconv.FormatInt(m.Duration, 10)),
	}
}

// Decode reconstructs a measurement from its key and a view of its fields
// (a record read or scanned back from a store; use store.ViewFields to
// decode a hand-built field set).
func Decode(key string, f store.FieldsView) (Measurement, error) {
	sep := strings.LastIndexByte(key, '|')
	if sep < 0 || f.Len() < 5 {
		return Measurement{}, fmt.Errorf("apm: malformed record %q (%d fields)", key, f.Len())
	}
	var m Measurement
	m.Metric = key[:sep]
	var err error
	if m.Value, err = strconv.ParseFloat(string(f.Field(0)), 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad value in %q: %w", key, err)
	}
	if m.Min, err = strconv.ParseFloat(string(f.Field(1)), 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad min in %q: %w", key, err)
	}
	if m.Max, err = strconv.ParseFloat(string(f.Field(2)), 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad max in %q: %w", key, err)
	}
	if m.Timestamp, err = strconv.ParseInt(string(f.Field(3)), 10, 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad timestamp in %q: %w", key, err)
	}
	if m.Duration, err = strconv.ParseInt(string(f.Field(4)), 10, 64); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad duration in %q: %w", key, err)
	}
	return m, nil
}

// Agent simulates a monitoring agent reporting a set of metrics every
// Interval seconds (§2: agents aggregate events over fixed intervals).
type Agent struct {
	Host     string
	Metrics  []string // metric names relative to the host
	Interval int64    // seconds

	walk map[string]float64
}

// NewAgent creates an agent with n synthetic metrics.
func NewAgent(host string, n int, interval int64) *Agent {
	a := &Agent{Host: host, Interval: interval, walk: map[string]float64{}}
	kinds := []string{"AverageResponseTime", "ConnectionCount", "CPUUtilization", "ErrorRate", "HeapUsage"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s/Agent/Component%03d/%s", host, i/len(kinds), kinds[i%len(kinds)])
		a.Metrics = append(a.Metrics, name)
		a.walk[name] = 50 // start mid-range so the walk moves freely
	}
	return a
}

// Report produces the agent's measurements for the interval ending at ts.
// Values follow a bounded random walk driven by rnd (a uniform [0,1) draw
// per metric keeps the agent deterministic under the simulation's seed).
func (a *Agent) Report(ts int64, rnd func() float64) []Measurement {
	out := make([]Measurement, 0, len(a.Metrics))
	for _, metric := range a.Metrics {
		v := a.walk[metric] + (rnd()-0.5)*10
		if v < 0 {
			v = 0
		}
		a.walk[metric] = v
		out = append(out, Measurement{
			Metric:    metric,
			Value:     v,
			Min:       v * 0.8,
			Max:       v * 1.25,
			Timestamp: ts,
			Duration:  a.Interval,
		})
	}
	return out
}

// WindowStats aggregates a metric's measurements in [from, to] using a
// store scan: the "maximum number of connections on host X within the last
// 10 minutes" query class of §2.
type WindowStats struct {
	Count int
	Avg   float64
	Min   float64
	Max   float64
}

// pageSize is the row count of one paginated scan RPC in Series.
const pageSize = 60

// Series streams one metric's measurements with timestamps in [from, to]
// as the classic paginated range read: each page is one store Scan of 60
// rows, and the next page starts just past the previous page's last key.
// The series ends on a short page (the key space ran out) or at the first
// row that leaves the metric or the window; the rest of that page was
// already paid for, since scans charge by count. The next page's Scan is
// issued only after the consumer has taken every row of the current page,
// and none once the consumer stops ranging. A failed scan or an
// undecodable row ends the series with its error.
//
// Rows are decoded from the page's field views as they are yielded, so the
// loop body must not operate on s (see store.Store.Scan).
func Series(p *sim.Proc, s store.Store, metric string, from, to int64) iter.Seq2[Measurement, error] {
	return func(yield func(Measurement, error) bool) {
		start := Measurement{Metric: metric, Timestamp: from}.Key()
		for {
			recs, err := s.Scan(p, start, pageSize)
			if err != nil {
				yield(Measurement{}, err)
				return
			}
			for _, r := range recs {
				m, err := Decode(r.Key, r.Fields)
				if err != nil {
					yield(Measurement{}, err)
					return
				}
				if m.Metric != metric || m.Timestamp > to || !yield(m, nil) {
					return
				}
			}
			if len(recs) < pageSize {
				return
			}
			start = recs[len(recs)-1].Key + "\x00"
		}
	}
}

// Window scans one metric's time range and aggregates it.
//
// Use an order-preserving store (HBase's range-partitioned regions, or a
// single-node B-tree store) for window queries: hash-partitioned stores
// (Cassandra's RandomPartitioner, sharded Redis/MySQL) return node-local
// samples for range scans, so windows over them may under-count — the same
// trade-off the paper's scan discussion surfaces (§4.2, §5.4).
func Window(p *sim.Proc, s store.Store, metric string, from, to int64) (WindowStats, error) {
	var st WindowStats
	var sum float64
	for m, err := range Series(p, s, metric, from, to) {
		if err != nil {
			return WindowStats{}, err
		}
		if st.Count == 0 || m.Min < st.Min {
			st.Min = m.Min
		}
		if st.Count == 0 || m.Max > st.Max {
			st.Max = m.Max
		}
		st.Count++
		sum += m.Value
	}
	if st.Count > 0 {
		st.Avg = sum / float64(st.Count)
	}
	return st, nil
}

// GroupAvg aggregates the same metric kind across multiple hosts: the
// "average CPU utilization of Web servers of type Y" query class of §2.
func GroupAvg(p *sim.Proc, s store.Store, metrics []string, from, to int64) (float64, int, error) {
	var sum float64
	var n int
	for _, m := range metrics {
		st, err := Window(p, s, m, from, to)
		if err != nil {
			return 0, 0, err
		}
		sum += st.Avg * float64(st.Count)
		n += st.Count
	}
	if n == 0 {
		return 0, 0, nil
	}
	return sum / float64(n), n, nil
}

// IngestRate computes the paper's sizing arithmetic (§1, §8): hosts
// reporting metricsPerHost measurements every intervalSec seconds.
func IngestRate(hosts, metricsPerHost int, intervalSec int64) float64 {
	if intervalSec <= 0 {
		return 0
	}
	return float64(hosts) * float64(metricsPerHost) / float64(intervalSec)
}

// StorageNodesNeeded sizes a storage tier: measurements/sec divided by a
// store's per-node Workload W throughput, respecting the paper's rule that
// at most budgetFraction of the monitored fleet may be storage nodes.
func StorageNodesNeeded(ingestPerSec, perNodeThroughput float64, hosts int, budgetFraction float64) (nodes int, withinBudget bool) {
	if perNodeThroughput <= 0 {
		return 0, false
	}
	nodes = int(ingestPerSec/perNodeThroughput) + 1
	budget := int(float64(hosts) * budgetFraction)
	return nodes, nodes <= budget
}

// MonitoringLevel selects an agent's reporting detail (§3: "current APM
// tools make it possible to define different monitoring levels ... that
// result in different data rates").
type MonitoringLevel int

// Monitoring levels, in increasing data-rate order.
const (
	// Basic reports a coarse subset of metrics.
	Basic MonitoringLevel = iota
	// TransactionTrace adds per-transaction metrics.
	TransactionTrace
	// IncidentTriage reports everything the agent can observe.
	IncidentTriage
)

// MetricFraction returns the share of an agent's metric catalog reported at
// this level.
func (l MonitoringLevel) MetricFraction() float64 {
	switch l {
	case Basic:
		return 0.1
	case TransactionTrace:
		return 0.5
	default:
		return 1.0
	}
}

// ReportAt produces the measurements for the interval ending at ts at the
// given monitoring level: a deterministic prefix of the metric catalog.
func (a *Agent) ReportAt(ts int64, level MonitoringLevel, rnd func() float64) []Measurement {
	all := a.Report(ts, rnd)
	n := int(float64(len(all)) * level.MetricFraction())
	if n < 1 {
		n = 1
	}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
