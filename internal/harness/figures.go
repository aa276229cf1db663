package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Series is one line in a figure: a label with X/Y points.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a regenerated paper figure: the same series the paper plots.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Appendix is extra pre-formatted detail appended verbatim after the
	// table by Render and RenderCSV (e.g. a fault scenario's per-window
	// recovery curves). Empty for every paper figure, so their rendered
	// output is unchanged.
	Appendix string
}

// Render formats the figure as an aligned text table (systems as columns).
// Column width tracks the longest series label, so scenario series (whose
// labels carry workload and variant names) stay aligned.
func (f Figure) Render() string {
	colWidth := 16
	for _, s := range f.Series {
		if w := len(s.Label) + 2; w > colWidth {
			colWidth = w
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%*s", colWidth, s.Label)
	}
	fmt.Fprintf(&b, "    (%s)\n", f.YLabel)
	// Collect the union of X values.
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var order []float64
	for x := range xs {
		order = append(order, x)
	}
	sort.Float64s(order)
	for _, x := range order {
		fmt.Fprintf(&b, "%-12.4g", x)
		for _, s := range f.Series {
			found := false
			for i := range s.X {
				if s.X[i] == x {
					fmt.Fprintf(&b, "%*.4g", colWidth, s.Y[i])
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(&b, "%*s", colWidth, "-")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(f.Appendix)
	return b.String()
}

// RenderCSV formats the figure as CSV: one row per X value, one column per
// series, empty cells for missing points.
func (f Figure) RenderCSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# figure %s: %s\n", f.ID, f.Title)
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var order []float64
	for x := range xs {
		order = append(order, x)
	}
	sort.Float64s(order)
	for _, x := range order {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			b.WriteByte(',')
			for i := range s.X {
				if s.X[i] == x {
					fmt.Fprintf(&b, "%g", s.Y[i])
					break
				}
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(f.Appendix)
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

// metric extracts one Y value from a cell result.
type metric func(CellResult) float64

func throughputMetric(r CellResult) float64 { return r.Throughput }
func latencyMs(t sim.Time) float64          { return float64(t) / float64(sim.Millisecond) }
func readLatMetric(r CellResult) float64    { return latencyMs(r.ReadLat) }
func writeLatMetric(r CellResult) float64   { return latencyMs(r.WriteLat) }
func scanLatMetric(r CellResult) float64    { return latencyMs(r.ScanLat) }
func diskMetric(r CellResult) float64       { return r.DiskBytesPaperScale / 1e9 }

// Table1 renders the workload specification table.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1: Workload specifications\n")
	fmt.Fprintf(&b, "%-10s%10s%10s%10s\n", "Workload", "% Read", "% Scans", "% Inserts")
	rows := []struct {
		name                string
		read, scans, insert int
	}{
		{"R", 95, 0, 5}, {"RW", 50, 0, 50}, {"W", 1, 0, 99},
		{"RS", 47, 47, 6}, {"RSW", 25, 25, 50},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s%10d%10d%10d\n", r.name, r.read, r.scans, r.insert)
	}
	return b.String()
}
