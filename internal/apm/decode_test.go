package apm

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/store"
)

// FuzzDecodeColumns checks the column-pruned decoder against Decode over
// five arbitrary field byte strings and every column mask: it must fail
// exactly when Decode fails, with the same error text, and every column
// it converts must equal Decode's bit for bit (so NaN compares), while the
// columns it skips stay zero.
func FuzzDecodeColumns(f *testing.F) {
	seeds := []string{"1e5", "inf", "0x1p3", "1_0", ".5", "5.", "-", "", strings.Repeat("7", 400)}
	for _, s := range seeds {
		f.Add([]byte(s), []byte("2.5"), []byte("-3"), []byte("1332988833"), []byte("15"))
		f.Add([]byte("4"), []byte(s), []byte(s), []byte(s), []byte(s))
	}
	f.Fuzz(func(t *testing.T, value, min, max, ts, dur []byte) {
		key := Measurement{Metric: "HostA/AgentX/ServletB/AverageResponseTime", Timestamp: 1}.Key()
		fields := slab.View(store.Fields{value, min, max, ts, dur})
		want, wantErr := Decode(key, fields)
		for cols := Columns(0); cols <= ColAll; cols++ {
			got, err := decode(key, fields, cols)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("cols %03b: error %v, Decode's %v", cols, err, wantErr)
			}
			if err != nil {
				continue
			}
			if got.Metric != want.Metric || got.Timestamp != want.Timestamp || got.Duration != want.Duration {
				t.Fatalf("cols %03b: %+v, Decode's %+v", cols, got, want)
			}
			for _, c := range []struct {
				col       Columns
				got, want float64
			}{{ColValue, got.Value, want.Value}, {ColMin, got.Min, want.Min}, {ColMax, got.Max, want.Max}} {
				if cols&c.col == 0 {
					c.want = 0
				}
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("cols %03b: column %03b = %v, want %v", cols, c.col, c.got, c.want)
				}
			}
		}
	})
}

// TestSeriesValidatesUnreadColumns: a field no query reads still ends the
// series at its row, with Decode's error, whatever columns are converted.
func TestSeriesValidatesUnreadColumns(t *testing.T) {
	for i, field := range []string{"value", "min", "max", "timestamp", "duration"} {
		s := newScanLog()
		s.fill("a", 20)
		bad := Measurement{Metric: "a", Value: 7, Min: 7, Max: 7, Timestamp: 7, Duration: 1}
		f := bad.Fields()
		f[i] = []byte("7x")
		s.put(bad.Key(), f)
		_, want := Decode(bad.Key(), slab.View(f))
		if want == nil || !strings.Contains(want.Error(), "bad "+field) {
			t.Fatalf("Decode accepted a bad %s: %v", field, want)
		}
		for cols := Columns(0); cols <= ColAll; cols++ {
			var got []Measurement
			var err error
			e := sim.NewEngine(1)
			e.Go("reader", func(p *sim.Proc) {
				for m, serr := range Series(p, s, "a", 1, 20, cols) {
					if serr != nil {
						err = serr
						return
					}
					got = append(got, m)
				}
			})
			e.Run(0)
			if len(got) != 6 || fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("bad %s, cols %03b: %d rows, err %v; want 6 rows, then %v", field, cols, len(got), err, want)
			}
			for _, m := range got {
				if (cols&ColValue != 0) != (m.Value != 0) || (cols&ColMin != 0) != (m.Min != 0) || (cols&ColMax != 0) != (m.Max != 0) {
					t.Fatalf("cols %03b converted the wrong columns: %+v", cols, m)
				}
			}
		}
	}
}

// TestFieldsMatchesSprintf pins Fields to the encoding it replaced:
// fmt's %g for the float columns and decimal for the int columns, over
// the float specials and random bit patterns. Each field must also be
// capped at its own length, so an append to one cannot reach the next.
func TestFieldsMatchesSprintf(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
		-math.MaxFloat64, 1e20, 1e21, 1e-4, 1e-5, 0.1, 100.1, 123456789}
	r := rand.New(rand.NewSource(1))
	for range 100000 {
		floats = append(floats, math.Float64frombits(r.Uint64()))
	}
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 1332988833}
	for i, v := range floats {
		m := Measurement{Value: v, Min: floats[(i+1)%len(floats)], Max: floats[(i+2)%len(floats)],
			Timestamp: ints[i%len(ints)], Duration: int64(r.Uint64())}
		want := []string{fmt.Sprintf("%g", m.Value), fmt.Sprintf("%g", m.Min), fmt.Sprintf("%g", m.Max),
			strconv.FormatInt(m.Timestamp, 10), strconv.FormatInt(m.Duration, 10)}
		got := m.Fields()
		if len(got) != len(want) {
			t.Fatalf("%+v: %d fields", m, len(got))
		}
		for j := range want {
			if string(got[j]) != want[j] || cap(got[j]) != len(got[j]) {
				t.Fatalf("%+v field %d = %q (cap %d), want %q", m, j, got[j], cap(got[j]), want[j])
			}
		}
	}
}
