package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/apm"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/store"
	"repro/internal/stores/redis"
	"repro/internal/stores/voltdb"
)

// memStore is a minimal sorted in-memory Store for operator tests: every
// scan charges a fixed small virtual cost (so closed-loop runs advance
// simulated time) and serves records in key order like any real store.
type memStore struct {
	keys []string
	recs map[string]store.FieldsView
}

func newMemStore() *memStore { return &memStore{recs: map[string]store.FieldsView{}} }

func (m *memStore) Name() string { return "mem" }

// put stores a record, replacing any with its key.
func (m *memStore) put(key string, f store.Fields) error {
	// Stores copy on ingest: loaders reuse their key and field buffers.
	key = strings.Clone(key)
	if _, ok := m.recs[key]; !ok {
		i := sort.SearchStrings(m.keys, key)
		m.keys = append(m.keys, "")
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = key
	}
	m.recs[key] = slab.View(f)
	return nil
}

func (m *memStore) Insert(p *sim.Proc, key string, f store.Fields) error {
	return m.put(key, f)
}

func (m *memStore) Update(p *sim.Proc, key string, f store.Fields) error {
	return m.put(key, f)
}

// memStore is one engine to the loader.
func (m *memStore) Nodes() int                                 { return 1 }
func (m *memStore) LoadNodes(dst []int, key string) []int      { return append(dst, 0) }
func (m *memStore) LoadNode(_ int, key string, f store.Fields) { m.put(key, f) }
func (m *memStore) SealNode(int)                               {}

func (m *memStore) Read(p *sim.Proc, key string) (store.FieldsView, error) {
	f, ok := m.recs[key]
	if !ok {
		return store.FieldsView{}, store.ErrNotFound
	}
	return f, nil
}

func (m *memStore) Scan(p *sim.Proc, start string, count int) ([]store.Record, error) {
	p.Sleep(10 * sim.Microsecond)
	i := sort.SearchStrings(m.keys, start)
	out := make([]store.Record, 0, count)
	for ; i < len(m.keys) && len(out) < count; i++ {
		out = append(out, store.Record{Key: m.keys[i], Fields: m.recs[m.keys[i]]})
	}
	return out, nil
}

func (m *memStore) DiskUsage() int64 { return 0 }
func (m *memStore) SlabBytes() int64 { return 0 }

// inProc runs fn inside one simulated process and drains the engine.
func inProc(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	e := sim.NewEngine(1)
	e.Go("test", fn)
	e.Run(0)
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Name: "q"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := Spec{Name: "q", Weight: 1, WindowSec: 600, GroupBy: "metric",
		Column: "value", Aggs: []string{"avg"}, OrderBy: "group"}
	if fmt.Sprint(s) != fmt.Sprint(want) {
		t.Fatalf("defaults = %+v, want %+v", s, want)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "a b"},
		{Name: "q", Weight: -1},
		{Name: "q", GroupBy: "host"},
		{Name: "q", Column: "median"},
		{Name: "q", Aggs: []string{"sum"}},
		{Name: "q", Aggs: []string{"avg", "avg"}},
		{Name: "q", Filter: "value=50"},
		{Name: "q", Filter: "rate>50"},
		{Name: "q", OrderBy: "p99"},
		{Name: "q", Limit: -1},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d (%+v) unexpectedly valid", i, s)
		}
	}
}

func TestMixCanonicalRoundTrip(t *testing.T) {
	m := Mix{
		{Name: "overview", Weight: 4, WindowSec: 600, Aggs: []string{"avg", "max"}},
		{Name: "hot", Weight: 2, WindowSec: 1800, Filter: "value>80",
			Aggs: []string{"count", "avg"}, OrderBy: "count", Desc: true, Limit: 5},
		{Name: "tails", WindowSec: 3600, GroupBy: "kind", Column: "max",
			Aggs: []string{"p50", "p99"}},
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	enc := m.String()
	back, err := ParseMix(enc)
	if err != nil {
		t.Fatalf("ParseMix(%q): %v", enc, err)
	}
	if got := back.String(); got != enc {
		t.Fatalf("round trip changed the encoding:\n in: %s\nout: %s", enc, got)
	}
	if fmt.Sprint(back) != fmt.Sprint(m) {
		t.Fatalf("round trip changed the mix:\n in: %+v\nout: %+v", m, back)
	}
}

func TestParseMixRejectsMalformed(t *testing.T) {
	for _, enc := range []string{
		"",
		"noparens",
		"q(w=1",
		"q(wat=1,win=600,group=metric,col=value,aggs=avg,filter=,order=group,limit=0)",
		"q(w=x,win=600,group=metric,col=value,aggs=avg,filter=,order=group,limit=0)",
		// duplicate names across the mix
		"a(w=1,win=600,group=metric,col=value,aggs=avg,filter=,order=group,limit=0)+a(w=1,win=600,group=metric,col=value,aggs=avg,filter=,order=group,limit=0)",
	} {
		if _, err := ParseMix(enc); err == nil {
			t.Errorf("ParseMix(%q) unexpectedly valid", enc)
		}
	}
}

func TestParseMixAcceptsPlusInsideSpec(t *testing.T) {
	// Validation accepts these specs, so their canonical forms must
	// parse back: each contains a "+" that is not a spec boundary.
	m := Mix{
		{Name: "exp", Filter: "value>1e+5"},
		{Name: "signed", Filter: "value>+5"},
		{Name: "heavy", Weight: 1e10},
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	enc := m.String()
	back, err := ParseMix(enc)
	if err != nil {
		t.Fatalf("ParseMix(%q): %v", enc, err)
	}
	if got := back.String(); got != enc {
		t.Fatalf("round trip changed the encoding:\n in: %s\nout: %s", enc, got)
	}
}

func TestDatasetDeterministicAndOrdered(t *testing.T) {
	ds := SizeDataset(16000)
	if ds.Records() != int64(ds.Hosts*ds.MetricsPerHost)*ds.Intervals {
		t.Fatalf("Records() inconsistent")
	}
	a, b := newMemStore(), newMemStore()
	ds.Load(a, 1)
	ds.Load(b, 1)
	if len(a.keys) != int(ds.Records()) {
		t.Fatalf("loaded %d keys, want %d", len(a.keys), ds.Records())
	}
	for i, k := range a.keys {
		if b.keys[i] != k {
			t.Fatalf("load not deterministic at %d: %q vs %q", i, k, b.keys[i])
		}
		av, bv := a.recs[k], b.recs[k]
		for j := range av.Len() {
			if string(av.Field(j)) != string(bv.Field(j)) {
				t.Fatalf("field %d of %q differs across loads", j, k)
			}
		}
	}
	// Values are integer-derived and must land exactly on tenths.
	m := ds.synth(ds.HostMetrics(0)[0], 3)
	if m.Value < 0 || m.Value > 100.1 || m.Value*10 != math.Trunc(m.Value*10) {
		t.Fatalf("synth value %v outside the deterministic grid", m.Value)
	}
}

// expectedRows is the reference fold for a query's grouped output, built
// from the dataset definition alone: every in-window measurement is encoded
// and decoded whole with apm.Decode, then filtered, projected and grouped
// by logic local to this file (no store, no operators, no column pruning).
func expectedRows(t testing.TB, ds Dataset, host int, s Spec) []ResultRow {
	t.Helper()
	from, to := ds.Window(s.WindowSec)
	pick := func(m apm.Measurement, col string) float64 {
		switch col {
		case "min":
			return m.Min
		case "max":
			return m.Max
		}
		return m.Value
	}
	keep := func(apm.Measurement) bool { return true }
	if s.Filter != "" {
		col, op, val, err := parseFilter(s.Filter)
		if err != nil {
			t.Fatal(err)
		}
		keep = func(m apm.Measurement) bool {
			switch v := pick(m, col); op {
			case "<":
				return v < val
			case "<=":
				return v <= val
			case ">":
				return v > val
			default:
				return v >= val
			}
		}
	}
	groups := map[string][]float64{}
	for _, metric := range ds.HostMetrics(host) {
		for k := int64(0); k < ds.Intervals; k++ {
			enc := ds.synth(metric, k)
			m, err := apm.Decode(enc.Key(), slab.View(enc.Fields()))
			if err != nil {
				t.Fatal(err)
			}
			if m.Timestamp < from || m.Timestamp > to || !keep(m) {
				continue
			}
			g := m.Metric
			switch s.GroupBy {
			case "kind":
				g = g[strings.LastIndexByte(g, '/')+1:]
			case "none":
				g = "all"
			}
			groups[g] = append(groups[g], pick(m, s.Column))
		}
	}
	var rows []ResultRow
	for _, g := range sortedGroups(groups) {
		vals := groups[g]
		row := ResultRow{Group: g, Aggs: make([]float64, len(s.Aggs))}
		for i, a := range s.Aggs {
			switch a {
			case "count":
				row.Aggs[i] = float64(len(vals))
			case "avg":
				var sum float64
				for _, v := range vals {
					sum += v
				}
				row.Aggs[i] = sum / float64(len(vals))
			case "min":
				mn := vals[0]
				for _, v := range vals {
					if v < mn {
						mn = v
					}
				}
				row.Aggs[i] = mn
			case "max":
				mx := vals[0]
				for _, v := range vals {
					if v > mx {
						mx = v
					}
				}
				row.Aggs[i] = mx
			case "p50":
				row.Aggs[i] = percentile(append([]float64(nil), vals...), 0.50)
			case "p99":
				row.Aggs[i] = percentile(append([]float64(nil), vals...), 0.99)
			}
		}
		rows = append(rows, row)
	}
	return OrderLimit(rows, s.OrderBy, s.Aggs, s.Desc, s.Limit)
}

func TestExecuteMatchesDirectComputation(t *testing.T) {
	ds := SizeDataset(8000)
	st := newMemStore()
	ds.Load(st, 1)
	specs := []Spec{
		{Name: "plain", WindowSec: 600, Aggs: []string{"avg", "max", "count"}},
		{Name: "filtered", WindowSec: 1800, Filter: "value>50", Aggs: []string{"count", "avg"}},
		{Name: "kinds", WindowSec: 3600, GroupBy: "kind", Aggs: []string{"p50", "p99", "min"}},
		{Name: "global", WindowSec: 900, GroupBy: "none", Column: "max", Aggs: []string{"avg"}},
		{Name: "top3", WindowSec: 1800, Aggs: []string{"avg"}, OrderBy: "avg", Desc: true, Limit: 3},
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			q, err := Plan(s)
			if err != nil {
				t.Fatal(err)
			}
			for host := 0; host < 2; host++ {
				from, to := ds.Window(q.Spec.WindowSec)
				var got []ResultRow
				inProc(t, func(p *sim.Proc) {
					var err error
					got, err = q.Execute(p, st, ds.HostRanges(host, from, to))
					if err != nil {
						t.Errorf("Execute: %v", err)
					}
				})
				want := expectedRows(t, ds, host, q.Spec)
				if len(got) == 0 {
					t.Fatalf("host %d: no rows", host)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("host %d rows diverge:\n got %v\nwant %v", host, got, want)
				}
			}
		})
	}
}

// TestExecuteMatchesFullDecode runs every dashboard panel, plus specs
// that project min or max and one that filters on a column other than the
// one it projects, against the test store and 2-node voltdb and redis
// deployments: the rows a column-pruned plan returns must equal the
// reference fold over fully decoded measurements.
func TestExecuteMatchesFullDecode(t *testing.T) {
	ds := SizeDataset(8000)
	specs := append(DashboardPanels(),
		Spec{Name: "mins", WindowSec: 1800, Column: "min", Aggs: []string{"avg", "min", "max", "p99"}},
		Spec{Name: "maxes", WindowSec: 1800, Column: "max", GroupBy: "kind", Aggs: []string{"avg", "max", "p50"}},
		Spec{Name: "max-over-hot", WindowSec: 3600, Column: "max", Filter: "value>50",
			Aggs: []string{"count", "avg", "max"}, OrderBy: "max"},
	)
	onCluster := func(deploy func(*cluster.Cluster) store.Store) func() (*sim.Engine, store.Store) {
		return func() (*sim.Engine, store.Store) {
			e := sim.NewEngine(1)
			return e, deploy(cluster.New(e, cluster.ClusterM(2).Scale(0.01)))
		}
	}
	stores := []struct {
		name   string
		deploy func() (*sim.Engine, store.Store)
	}{
		{"mem", func() (*sim.Engine, store.Store) { return sim.NewEngine(1), newMemStore() }},
		{"voltdb", onCluster(func(c *cluster.Cluster) store.Store { return voltdb.New(c, voltdb.Options{}) })},
		{"redis", onCluster(func(c *cluster.Cluster) store.Store { return redis.New(c, redis.Options{}) })},
	}
	for _, sd := range stores {
		t.Run(sd.name, func(t *testing.T) {
			e, st := sd.deploy()
			ds.Load(st, 1)
			for _, s := range specs {
				q, err := Plan(s)
				if err != nil {
					t.Fatal(err)
				}
				for _, host := range []int{0, ds.Hosts - 1} {
					from, to := ds.Window(q.Spec.WindowSec)
					var got []ResultRow
					e.Go("q", func(p *sim.Proc) {
						if got, err = q.Execute(p, st, ds.HostRanges(host, from, to)); err != nil {
							t.Errorf("%s host %d: %v", s.Name, host, err)
						}
					})
					e.Run(0)
					want := expectedRows(t, ds, host, q.Spec)
					if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s host %d rows diverge:\n got %v\nwant %v", s.Name, host, got, want)
					}
				}
			}
		})
	}
}

// TestPlanCompilesColumns: a plan converts the projected column plus the
// filter's, and no other.
func TestPlanCompilesColumns(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want apm.Columns
	}{
		{Spec{Name: "q"}, apm.ColValue},
		{Spec{Name: "q", Column: "min"}, apm.ColMin},
		{Spec{Name: "q", Column: "max", Filter: "max<3"}, apm.ColMax},
		{Spec{Name: "q", Column: "max", Filter: "value>50"}, apm.ColMax | apm.ColValue},
		{Spec{Name: "q", Filter: "min>=1"}, apm.ColValue | apm.ColMin},
	} {
		q, err := Plan(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if q.cols != c.want {
			t.Errorf("%s: columns %03b, want %03b", q.Spec, q.cols, c.want)
		}
	}
}

// TestScanOpPaginatesWithoutLoss drives the query's scan step, apm.Series
// over each of a host's ranges.
func TestScanOpPaginatesWithoutLoss(t *testing.T) {
	// Window depth greater than the page size forces multi-page ranges:
	// every in-window row must come out exactly once, in key order.
	ds := Dataset{Hosts: 1, MetricsPerHost: 4, Intervals: 150, IntervalSec: 15, BaseTs: datasetBaseTs}
	st := newMemStore()
	ds.Load(st, 1)
	from, to := ds.Window(150 * 15)
	var rows []apm.Measurement
	inProc(t, func(p *sim.Proc) {
		for _, r := range ds.HostRanges(0, from, to) {
			for m, err := range apm.Series(p, st, r.Metric, r.From, r.To, apm.ColAll) {
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				rows = append(rows, m)
			}
		}
	})
	if len(rows) != int(ds.Records()) {
		t.Fatalf("streamed %d rows, want %d", len(rows), ds.Records())
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Metric == rows[i].Metric && rows[i-1].Timestamp >= rows[i].Timestamp {
			t.Fatalf("rows out of order at %d: %v then %v", i, rows[i-1], rows[i])
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if p := percentile(append([]float64(nil), vals...), 0.50); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := percentile(append([]float64(nil), vals...), 0.99); p != 100 {
		t.Fatalf("p99 = %v, want 100", p)
	}
	if p := percentile([]float64{7}, 0.99); p != 7 {
		t.Fatalf("p99 of singleton = %v, want 7", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("p50 of empty = %v, want 0", p)
	}
}

func TestRunCollectsQueryLatencies(t *testing.T) {
	ds := SizeDataset(4000)
	st := newMemStore()
	ds.Load(st, 1)
	mix := Mix{{Name: "overview", WindowSec: 600}, {Name: "deep", Weight: 0.5, WindowSec: 3600}}
	e := sim.NewEngine(7)
	res, err := Run(e, RunConfig{
		Store:   st,
		Dataset: ds,
		Mix:     mix,
		Clients: 4,
		Warmup:  10 * sim.Millisecond,
		Measure: 50 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops() == 0 {
		t.Fatal("no queries completed in the measured window")
	}
	if res.Errors() != 0 {
		t.Fatalf("%d errors", res.Errors())
	}
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %v", res.Throughput())
	}
}

func TestRunRejectsQuerylessStores(t *testing.T) {
	ds := SizeDataset(1000)
	e := sim.NewEngine(1)
	_, err := Run(e, RunConfig{
		Store:   noQueryStore{newMemStore()},
		Dataset: ds,
		Mix:     Mix{{Name: "q"}},
		Clients: 1,
		Measure: sim.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "scan") {
		t.Fatalf("err = %v, want scans-unsupported", err)
	}
}

type noQueryStore struct{ *memStore }

func (noQueryStore) Scan(p *sim.Proc, start string, count int) ([]store.Record, error) {
	return nil, store.ErrScansUnsupported
}

func BenchmarkQueryFilterAgg(b *testing.B) {
	ds := SizeDataset(4000)
	st := newMemStore()
	ds.Load(st, 1)
	q, err := Plan(Spec{Name: "bench", WindowSec: 3600, Filter: "value>50",
		Aggs: []string{"count", "avg", "p99"}})
	if err != nil {
		b.Fatal(err)
	}
	from, to := ds.Window(q.Spec.WindowSec)
	ranges := ds.HostRanges(0, from, to)
	e := sim.NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	e.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Execute(p, st, ranges); err != nil {
				b.Error(err)
				return
			}
		}
	})
	e.Run(0)
}

// FuzzParseMix feeds ParseMix arbitrary encodings (they arrive over the
// farm wire and from the cell cache): it must never panic, and any
// encoding it accepts must have a canonical String that re-parses to the
// same String.
func FuzzParseMix(f *testing.F) {
	spec := "q(w=1,win=600,group=metric,col=value,aggs=avg,filter=%s,order=group,limit=0)"
	f.Add(fmt.Sprintf(spec, "value>50") + "+" + strings.Replace(fmt.Sprintf(spec, ""), "q(", "r(", 1))
	// Each of these puts a "+" inside one spec's canonical form; w=1e10
	// renders as w=1e+10.
	f.Add(fmt.Sprintf(spec, "value>1e+5"))
	f.Add(fmt.Sprintf(spec, "value>+5"))
	f.Add(strings.Replace(fmt.Sprintf(spec, ""), "w=1,", "w=1e10,", 1))
	f.Fuzz(func(t *testing.T, enc string) {
		m, err := ParseMix(enc)
		if err != nil {
			return
		}
		canon := m.String()
		back, err := ParseMix(canon)
		if err != nil {
			t.Fatalf("ParseMix(%q) accepted, but its canonical form %q does not re-parse: %v", enc, canon, err)
		}
		if got := back.String(); got != canon {
			t.Fatalf("canonical form drifts on re-parse:\n first: %s\nsecond: %s", canon, got)
		}
	})
}
