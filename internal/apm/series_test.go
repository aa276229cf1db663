package apm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/store"
)

// scanCall is one recorded Store.Scan request.
type scanCall struct {
	start string
	count int
}

// scanLog is a sorted in-memory store that records every Scan it serves,
// so tests can pin the exact page sequence a reader issues.
type scanLog struct {
	keys    []string
	recs    map[string]store.FieldsView
	calls   []scanCall
	scanErr error
}

func newScanLog() *scanLog { return &scanLog{recs: map[string]store.FieldsView{}} }

func (s *scanLog) Name() string { return "scanlog" }

// put stores a record, replacing any with its key.
func (s *scanLog) put(key string, f store.Fields) error {
	if _, ok := s.recs[key]; !ok {
		i := sort.SearchStrings(s.keys, key)
		s.keys = append(s.keys, "")
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
	}
	s.recs[key] = slab.View(f)
	return nil
}

func (s *scanLog) Insert(p *sim.Proc, key string, f store.Fields) error { return s.put(key, f) }
func (s *scanLog) Update(p *sim.Proc, key string, f store.Fields) error { return s.put(key, f) }

// scanLog is one engine to the loader.
func (s *scanLog) Nodes() int                                 { return 1 }
func (s *scanLog) LoadNodes(dst []int, key string) []int      { return append(dst, 0) }
func (s *scanLog) LoadNode(_ int, key string, f store.Fields) { s.put(key, f) }
func (s *scanLog) SealNode(int)                               {}

func (s *scanLog) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	f, ok := s.recs[key]
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return f, nil
}

func (s *scanLog) Scan(p *sim.Proc, start string, count int) ([]store.Record, error) {
	// Scan must not retain its lookup key (see store.Store): Series
	// reuses the key's buffer for the next page.
	s.calls = append(s.calls, scanCall{strings.Clone(start), count})
	if s.scanErr != nil {
		return nil, s.scanErr
	}
	var out []store.Record
	for i := sort.SearchStrings(s.keys, start); i < len(s.keys) && len(out) < count; i++ {
		out = append(out, store.Record{Key: s.keys[i], Fields: s.recs[s.keys[i]]})
	}
	return out, nil
}

func (s *scanLog) DiskUsage() int64 { return 0 }
func (s *scanLog) SlabBytes() int64 { return 0 }

// fill loads metric's measurements at timestamps 1..n.
func (s *scanLog) fill(metric string, n int64) {
	for ts := int64(1); ts <= n; ts++ {
		m := Measurement{Metric: metric, Value: float64(ts), Min: float64(ts), Max: float64(ts), Timestamp: ts, Duration: 1}
		s.put(m.Key(), m.Fields())
	}
}

// page is the Scan a reader issues to continue after metric's row ts
// (ts 0: the series' first page, seeking from timestamp 1).
func page(metric string, ts int64) scanCall {
	if ts == 0 {
		return scanCall{Measurement{Metric: metric, Timestamp: 1}.Key(), pageSize}
	}
	return scanCall{Measurement{Metric: metric, Timestamp: ts}.Key() + "\x00", pageSize}
}

// consume ranges over Series(metric, 1, to) inside a simulated process,
// breaking after limit rows (limit < 0: never), and returns the rows'
// timestamps and the series' error.
func consume(s *scanLog, metric string, to int64, limit int) (got []int64, err error) {
	e := sim.NewEngine(1)
	e.Go("reader", func(p *sim.Proc) {
		for m, serr := range Series(p, s, metric, 1, to, ColAll) {
			if serr != nil {
				err = serr
				return
			}
			got = append(got, m.Timestamp)
			if len(got) == limit {
				break
			}
		}
	})
	e.Run(0)
	return got, err
}

func checkCalls(t *testing.T, s *scanLog, want ...scanCall) {
	t.Helper()
	if fmt.Sprint(s.calls) != fmt.Sprint(want) {
		t.Fatalf("scan calls:\n got %q\nwant %q", s.calls, want)
	}
}

func TestSeriesExactMultiplePaysEmptyPage(t *testing.T) {
	s := newScanLog()
	s.fill("a", 2*pageSize)
	got, err := consume(s, "a", 1000, -1)
	if err != nil || len(got) != 2*pageSize {
		t.Fatalf("got %d rows, err %v; want %d", len(got), err, 2*pageSize)
	}
	// Two full pages cannot prove the series ended: a third, empty page
	// does.
	checkCalls(t, s, page("a", 0), page("a", pageSize), page("a", 2*pageSize))
}

func TestSeriesShortPageStops(t *testing.T) {
	s := newScanLog()
	s.fill("a", pageSize+10)
	got, err := consume(s, "a", 1000, -1)
	if err != nil || len(got) != pageSize+10 {
		t.Fatalf("got %d rows, err %v; want %d", len(got), err, pageSize+10)
	}
	checkCalls(t, s, page("a", 0), page("a", pageSize))
}

func TestSeriesStopsWhereRowsLeave(t *testing.T) {
	s := newScanLog()
	s.fill("a", pageSize+10)
	s.fill("b", 3*pageSize)
	// The second page is full, but its 11th row belongs to "b": the
	// series ends there without another RPC.
	got, err := consume(s, "a", 1000, -1)
	if err != nil || len(got) != pageSize+10 {
		t.Fatalf("got %d rows, err %v; want %d", len(got), err, pageSize+10)
	}
	checkCalls(t, s, page("a", 0), page("a", pageSize))

	// Leaving the window mid-page ends the series the same way.
	s.calls = nil
	got, err = consume(s, "a", 30, -1)
	if err != nil || len(got) != 30 || got[29] != 30 {
		t.Fatalf("window [1,30]: got %v, err %v", got, err)
	}
	checkCalls(t, s, page("a", 0))
}

func TestSeriesBreakIssuesNoFurtherScan(t *testing.T) {
	for _, limit := range []int{1, 5, pageSize} {
		s := newScanLog()
		s.fill("a", 3*pageSize)
		got, err := consume(s, "a", 1000, limit)
		if err != nil || len(got) != limit {
			t.Fatalf("limit %d: got %d rows, err %v", limit, len(got), err)
		}
		// Breaking on the last row of a page must not prefetch the next.
		checkCalls(t, s, page("a", 0))
	}
}

func TestWindowSurfacesDecodeAndScanErrors(t *testing.T) {
	s := newScanLog()
	s.fill("a", 20)
	bad := Measurement{Metric: "a", Timestamp: 7}
	f := bad.Fields()
	f[0] = []byte("notanumber")
	s.put(bad.Key(), f)
	got, err := consume(s, "a", 20, -1)
	if err == nil || len(got) != 6 {
		t.Fatalf("series over an undecodable row: %d rows, err %v; want the 6 rows before it, then an error", len(got), err)
	}

	s.scanErr = store.ErrUnavailable
	if _, err := consume(s, "a", 20, -1); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("series scan error = %v, want ErrUnavailable", err)
	}
}
