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
	"unsafe"

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
	return string(m.AppendKey(make([]byte, 0, len(m.Metric)+1+timestampWidth)))
}

// AppendKey appends the measurement's storage key to b: Key without the
// allocation, for loaders that rebuild one buffer per record.
func (m Measurement) AppendKey(b []byte) []byte { return appendKey(b, m.Metric, m.Timestamp) }

// appendKey appends the storage key of metric's measurement at ts to b.
func appendKey(b []byte, metric string, ts int64) []byte {
	b = append(b, metric...)
	b = append(b, '|')
	return appendPaddedInt(b, ts)
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

// Fields encodes the measurement payload as the record's value fields:
// value, min and max as fmt's %g renders them, then timestamp and duration
// in decimal. The five fields share one sized buffer.
func (m Measurement) Fields() store.Fields {
	f, _ := m.AppendFields(make(store.Fields, 0, 5), make([]byte, 0, fieldsBytes))
	return f
}

// fieldsBytes bounds an encoded payload: a 'g' float64 takes at most 24
// bytes and an int64 at most 20.
const fieldsBytes = 3*24 + 2*20

// AppendFields is Fields appending the five fields to f and their bytes
// to b, returning both extended. Loaders reuse f and b across records
// (passing back f[:0], b[:0]), so encoding allocates nothing once b holds
// fieldsBytes.
func (m Measurement) AppendFields(f store.Fields, b []byte) (store.Fields, []byte) {
	for _, v := range [...]float64{m.Value, m.Min, m.Max} {
		n := len(b)
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		f = append(f, b[n:len(b):len(b)])
	}
	for _, v := range [...]int64{m.Timestamp, m.Duration} {
		n := len(b)
		b = strconv.AppendInt(b, v, 10)
		f = append(f, b[n:len(b):len(b)])
	}
	return f, b
}

// Columns is a set of a measurement's float columns: the ones a reader
// converts (see Series). The metric, timestamp and duration are always
// decoded.
type Columns uint8

const (
	ColValue Columns = 1 << iota
	ColMin
	ColMax
	// ColAll is every column: a whole Measurement.
	ColAll = ColValue | ColMin | ColMax
)

// Decode reconstructs a measurement from its key and a view of its fields
// (a record read or scanned back from a store; slab.View makes one of a
// hand-built field set).
func Decode(key string, f store.FieldsView) (Measurement, error) {
	return decode(key, f, ColAll)
}

// decode is Decode converting only the columns in cols; the others are
// left zero. It accepts and rejects exactly the rows Decode does, with the
// same error: an unconverted column is still validated, by a plain-form
// check that strconv accepts whenever it passes, and by strconv itself
// whenever it does not.
func decode(key string, f store.FieldsView, cols Columns) (Measurement, error) {
	sep := strings.LastIndexByte(key, '|')
	if sep < 0 || f.Len() < 5 {
		return Measurement{}, fmt.Errorf("apm: malformed record %q (%d fields)", key, f.Len())
	}
	var m Measurement
	m.Metric = key[:sep]
	var err error
	if m.Value, err = parseFloat(f.Field(0), cols&ColValue != 0); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad value in %q: %w", key, err)
	}
	if m.Min, err = parseFloat(f.Field(1), cols&ColMin != 0); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad min in %q: %w", key, err)
	}
	if m.Max, err = parseFloat(f.Field(2), cols&ColMax != 0); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad max in %q: %w", key, err)
	}
	if m.Timestamp, err = parseInt(f.Field(3)); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad timestamp in %q: %w", key, err)
	}
	if m.Duration, err = parseInt(f.Field(4)); err != nil {
		return Measurement{}, fmt.Errorf("apm: bad duration in %q: %w", key, err)
	}
	return m, nil
}

// maxPlainFloat bounds plainFloat's input: 64 digits neither overflow nor
// underflow a float64, so strconv.ParseFloat accepts every plain form this
// short.
const maxPlainFloat = 64

// parseFloat converts b when want is set. Otherwise it only validates b,
// returning 0: a plain decimal is accepted as is, and anything else goes
// through strconv.ParseFloat for its verdict and error.
func parseFloat(b []byte, want bool) (float64, error) {
	if !want && plainFloat(b) {
		return 0, nil
	}
	v, err := strconv.ParseFloat(view(b), 64)
	if !want {
		v = 0
	}
	return v, err
}

// plainFloat reports whether b is [+-]?digits[.digits], at most
// maxPlainFloat bytes.
func plainFloat(b []byte) bool {
	if len(b) > maxPlainFloat {
		return false
	}
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	n := digits(b)
	if n == 0 || n == len(b) {
		return n > 0
	}
	frac := b[n+1:]
	return b[n] == '.' && len(frac) > 0 && digits(frac) == len(frac)
}

// maxPlainInt bounds plainInt's digit count: 18 digits always fit an int64.
const maxPlainInt = 18

// parseInt converts a base-10 int64 column. The plain form, [+-]?digits
// with 1 to maxPlainInt digits, is converted in place: it has exactly one
// value, the one strconv.ParseInt returns. Anything else goes to ParseInt
// for its value or its error.
func parseInt(b []byte) (int64, error) {
	if v, ok := plainInt(b); ok {
		return v, nil
	}
	return strconv.ParseInt(view(b), 10, 64)
}

// plainInt converts b if it is [+-]?digits with 1 to maxPlainInt digits.
func plainInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > maxPlainInt {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// digits returns the length of b's leading run of ASCII digits.
func digits(b []byte) int {
	for i, c := range b {
		if c < '0' || c > '9' {
			return i
		}
	}
	return len(b)
}

// view returns b as a string without copying. strconv does not retain its
// input (its errors carry a copy), so the view never outlives the call.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

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
// Only the columns in cols are converted; the others are zero in the
// yielded measurements. Every field of every row read is still validated,
// before the row's metric and window are checked, so a row that Decode
// rejects ends the series at that row with Decode's error whatever cols
// holds.
//
// Rows are decoded from the page's field views as they are yielded, so the
// loop body must not operate on s (see store.Store.Scan).
func Series(p *sim.Proc, s store.Store, metric string, from, to int64, cols Columns) iter.Seq2[Measurement, error] {
	return func(yield func(Measurement, error) bool) {
		// One start-key buffer serves every page: Scan does not retain
		// its lookup key (see store.Store).
		buf := appendKey(make([]byte, 0, len(metric)+1+timestampWidth+1), metric, from)
		for {
			recs, err := s.Scan(p, view(buf), pageSize)
			if err != nil {
				yield(Measurement{}, err)
				return
			}
			for _, r := range recs {
				m, err := decode(r.Key, r.Fields, cols)
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
			buf = append(buf[:0], recs[len(recs)-1].Key...)
			buf = append(buf, 0)
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
