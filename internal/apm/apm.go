// Package apm implements the application performance management record
// format of the paper (§2–§3): measurements with a metric name, value,
// min/max aggregates, timestamp and duration (Fig 2), their storage key and
// fields, the paginated per-metric range read (Series) every dashboard query
// is built on, and the §1/§8 sizing arithmetic. The workload model — which
// hosts report which metrics, and the queries dashboards run over them —
// lives in internal/query.
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
