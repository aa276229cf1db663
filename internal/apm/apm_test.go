package apm

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/store"
	"repro/internal/stores/hbase"
)

func TestKeyOrderedByTimestamp(t *testing.T) {
	a := Measurement{Metric: "HostA/x", Timestamp: 100}.Key()
	b := Measurement{Metric: "HostA/x", Timestamp: 99}.Key()
	c := Measurement{Metric: "HostA/x", Timestamp: 1000}.Key()
	if !(b < a && a < c) {
		t.Fatalf("keys not time ordered: %q %q %q", b, a, c)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Measurement{
		Metric: "HostA/AgentX/ServletB/AverageResponseTime",
		Value:  4, Min: 1, Max: 6, Timestamp: 1332988833, Duration: 15,
	}
	got, err := Decode(m.Key(), slab.View(m.Fields()))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := Decode("nopipe", slab.View(store.Fields{[]byte("1")})); err == nil {
		t.Fatal("accepted key without separator")
	}
	m := Measurement{Metric: "a/b", Timestamp: 5}
	f := m.Fields()
	f[0] = []byte("notanumber")
	if _, err := Decode(m.Key(), slab.View(f)); err == nil {
		t.Fatal("accepted non-numeric value")
	}
}

// readSeries collects Series(metric, from, to) inside a process on e.
func readSeries(e *sim.Engine, s store.Store, metric string, from, to int64) (got []Measurement, err error) {
	e.Go("q", func(p *sim.Proc) {
		for m, serr := range Series(p, s, metric, from, to, ColAll) {
			if serr != nil {
				err = serr
				return
			}
			got = append(got, m)
		}
	})
	e.Run(0)
	return got, err
}

// load loads m into s as a load phase does: into every engine the store
// routes its key to.
func load(s store.Store, m Measurement) {
	k := m.Key()
	for _, i := range s.LoadNodes(nil, k) {
		s.LoadNode(i, k, m.Fields())
	}
}

func TestWindowAggregatesOverStore(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(2).Scale(0.01))
	s := hbase.New(c, hbase.Options{MemstoreFlushBytes: 64 << 10})
	metric := "HostA/Agent/Component000/ConnectionCount"
	// 60 samples at 10s resolution (the paper's 10-minute scan window).
	for i := int64(0); i < 60; i++ {
		m := Measurement{Metric: metric, Value: float64(i), Min: float64(i), Max: float64(i),
			Timestamp: 1000 + i*10, Duration: 10}
		load(s, m)
	}
	// Another metric that must not leak into the window.
	other := Measurement{Metric: "HostB/Agent/Component000/ConnectionCount",
		Value: 1e9, Max: 1e9, Timestamp: 1200, Duration: 10}
	load(s, other)

	got, err := readSeries(e, s, metric, 1000, 1590)
	if err != nil {
		t.Fatalf("series: %v", err)
	}
	if len(got) != 60 {
		t.Fatalf("count = %d, want 60 (ten minutes at 10s resolution)", len(got))
	}
	for i, m := range got {
		if m.Metric != metric || m.Timestamp != 1000+int64(i)*10 || m.Max != float64(i) {
			t.Fatalf("row %d = %+v, want %s at ts %d with max %d", i, m, metric, 1000+i*10, i)
		}
	}
}

func TestWindowRespectsBounds(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1).Scale(0.01))
	s := hbase.New(c, hbase.Options{MemstoreFlushBytes: 64 << 10})
	metric := "H/x"
	for i := int64(0); i < 100; i++ {
		m := Measurement{Metric: metric, Value: 1, Timestamp: i * 10, Duration: 10}
		load(s, m)
	}
	got, err := readSeries(e, s, metric, 200, 390)
	if err != nil {
		t.Fatalf("series: %v", err)
	}
	if len(got) != 20 || got[0].Timestamp != 200 || got[19].Timestamp != 390 {
		t.Fatalf("got %d rows, want the 20 in-range samples 200..390", len(got))
	}
}

func TestIngestRateMatchesPaperScenario(t *testing.T) {
	// §1: 10K nodes x 10K metrics / 10s = 10M measurements/sec.
	if got := IngestRate(10000, 10000, 10); got != 10_000_000 {
		t.Fatalf("ingest = %f, want 10M/s", got)
	}
	// §8: 240 monitored nodes -> 240K inserts/sec.
	if got := IngestRate(240, 10000, 10); got != 240_000 {
		t.Fatalf("ingest = %f, want 240K/s", got)
	}
}

func TestStorageNodesNeeded(t *testing.T) {
	// §8: 240K inserts/s against a store that sustains ~20K/node needs 13
	// nodes; the 5% budget for 240 hosts is 12 -> not within budget.
	nodes, ok := StorageNodesNeeded(240_000, 20_000, 240, 0.05)
	if nodes != 13 || ok {
		t.Fatalf("nodes = %d ok = %v, want 13 over budget (paper's conclusion)", nodes, ok)
	}
	if _, ok := StorageNodesNeeded(100, 0, 10, 0.05); ok {
		t.Fatal("zero throughput cannot be within budget")
	}
}

// Property: encode/decode round-trips arbitrary measurements.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(val, min, max float64, ts uint32, dur uint16) bool {
		m := Measurement{Metric: "Host/A/B/Metric", Value: val, Min: min, Max: max,
			Timestamp: int64(ts), Duration: int64(dur)}
		got, err := Decode(m.Key(), slab.View(m.Fields()))
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyMatchesReferenceFormat(t *testing.T) {
	// The buffer-built key must reproduce the historical
	// fmt.Sprintf("%s|%012d", metric, ts) format exactly, including
	// negative and extra-wide timestamps.
	metrics := []string{"", "HostA/Agent/Component007/HeapUsage", "m|with|pipes"}
	stamps := []int64{0, 1, 999, 1_700_000_000, 999_999_999_999, 1_000_000_000_000, 12_345_678_901_234, -1, -42}
	for _, m := range metrics {
		for _, ts := range stamps {
			want := fmt.Sprintf("%s|%012d", m, ts)
			got := Measurement{Metric: m, Timestamp: ts}.Key()
			if got != want {
				t.Fatalf("Key(%q, %d) = %q, want %q", m, ts, got, want)
			}
		}
	}
}

// TestAppendReusesBuffers pins the loader's allocation-free encoding:
// AppendKey and AppendFields into reused buffers reproduce Key and Fields
// and allocate nothing.
func TestAppendReusesBuffers(t *testing.T) {
	var key []byte
	f, b := make(store.Fields, 0, 5), make([]byte, 0, fieldsBytes)
	for i, m := range []Measurement{
		{Metric: "HostA/Agent/Component007/HeapUsage", Value: 42.5, Min: 34, Max: 53.125, Timestamp: 1_700_000_000, Duration: 15},
		{Metric: "m", Value: -1e300, Min: 5e-324, Max: 1, Timestamp: -7, Duration: 0},
	} {
		key = m.AppendKey(key[:0])
		f, b = m.AppendFields(f[:0], b[:0])
		if string(key) != m.Key() {
			t.Fatalf("case %d: AppendKey = %q, Key = %q", i, key, m.Key())
		}
		want := m.Fields()
		for j := range want {
			if string(f[j]) != string(want[j]) {
				t.Fatalf("case %d: field %d = %q, want %q", i, j, f[j], want[j])
			}
		}
		if n := testing.AllocsPerRun(100, func() {
			key = m.AppendKey(key[:0])
			f, b = m.AppendFields(f[:0], b[:0])
		}); n != 0 {
			t.Fatalf("case %d: reused encoding allocates %v times, want 0", i, n)
		}
	}
}

// BenchmarkMeasurementKey pins the allocation win of the fmt-free key
// builder on the ingest hot path (was fmt.Sprintf with boxed args: 3
// allocs/op and ~190 ns; now one sized buffer and its string conversion).
func BenchmarkMeasurementKey(b *testing.B) {
	m := Measurement{Metric: "HostA/Agent/Component007/AverageResponseTime", Timestamp: 1_700_000_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Timestamp++
		if len(m.Key()) == 0 {
			b.Fatal("empty key")
		}
	}
}
