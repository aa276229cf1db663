package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apm"
	"repro/internal/sim"
	"repro/internal/store"
)

// filterPred compiles a validated filter expression and reports the
// column it reads.
func filterPred(expr string) (func(apm.Measurement) bool, apm.Columns, error) {
	col, op, val, err := parseFilter(expr)
	if err != nil {
		return nil, 0, err
	}
	colFn := column(col)
	var pred func(apm.Measurement) bool
	switch op {
	case "<":
		pred = func(m apm.Measurement) bool { return colFn(m) < val }
	case "<=":
		pred = func(m apm.Measurement) bool { return colFn(m) <= val }
	case ">":
		pred = func(m apm.Measurement) bool { return colFn(m) > val }
	default:
		pred = func(m apm.Measurement) bool { return colFn(m) >= val }
	}
	return pred, columns[col], nil
}

// column returns the projection for a validated column name.
func column(col string) func(apm.Measurement) float64 {
	switch col {
	case "min":
		return func(m apm.Measurement) float64 { return m.Min }
	case "max":
		return func(m apm.Measurement) float64 { return m.Max }
	default:
		return func(m apm.Measurement) float64 { return m.Value }
	}
}

// groupKey buckets a row under a validated groupBy; "kind" is the metric
// name's last path component.
func groupKey(groupBy string, m apm.Measurement) string {
	switch groupBy {
	case "metric":
		return m.Metric
	case "kind":
		return m.Metric[strings.LastIndexByte(m.Metric, '/')+1:]
	default:
		return "all"
	}
}

// aggState is one group's running aggregate state. Percentile aggregates
// keep the projected values; the cheap aggregates are O(1) counters.
type aggState struct {
	n        int64
	sum      float64
	min, max float64
	vals     []float64 // only when a percentile was requested
}

// ResultRow is one grouped output row: the group key and the requested
// aggregates, positionally matching the spec's Aggs.
type ResultRow struct {
	Group string
	Aggs  []float64
}

// finalize emits one row per group, sorted by group key.
func finalize(groups map[string]*aggState, aggs []string) []ResultRow {
	out := make([]ResultRow, 0, len(groups))
	for _, g := range sortedGroups(groups) {
		st := groups[g]
		row := ResultRow{Group: g, Aggs: make([]float64, len(aggs))}
		for i, a := range aggs {
			switch a {
			case "count":
				row.Aggs[i] = float64(st.n)
			case "avg":
				row.Aggs[i] = st.sum / float64(st.n)
			case "min":
				row.Aggs[i] = st.min
			case "max":
				row.Aggs[i] = st.max
			case "p50":
				row.Aggs[i] = percentile(st.vals, 0.50)
			case "p99":
				row.Aggs[i] = percentile(st.vals, 0.99)
			}
		}
		out = append(out, row)
	}
	return out
}

// percentile is the nearest-rank percentile of vals (sorted in place).
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := min(max(int(q*float64(len(vals))+0.9999999999), 1), len(vals))
	return vals[rank-1]
}

// OrderLimit sorts the grouped rows by "group" or a named aggregate
// (ties break on group key, so the order is total and deterministic) and
// truncates to limit when limit > 0.
func OrderLimit(rows []ResultRow, orderBy string, aggs []string, desc bool, limit int) []ResultRow {
	if orderBy != "group" {
		ai := aggIndex(aggs, orderBy)
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].Aggs[ai] != rows[j].Aggs[ai] {
				return rows[i].Aggs[ai] < rows[j].Aggs[ai]
			}
			return rows[i].Group < rows[j].Group
		})
	}
	if desc {
		for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// Query is a planned pipeline for one spec.
type Query struct {
	Spec Spec
	cols apm.Columns                // the columns the pipeline reads
	pred func(apm.Measurement) bool // nil when unfiltered
}

// Plan validates and normalizes the spec and compiles its pipeline,
// including the column set its scans convert: the projected column plus
// the filter's.
func Plan(s Spec) (*Query, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	q := &Query{Spec: s, cols: columns[s.Column]}
	if s.Filter != "" {
		pred, cols, err := filterPred(s.Filter)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", s.Name, err)
		}
		q.pred = pred
		q.cols |= cols
	}
	return q, nil
}

// Execute runs the pipeline over the given per-metric ranges: each range's
// apm.Series rows, with the planned columns converted, are filtered,
// projected and folded into per-group aggregate state; the groups are then
// finalized, ordered and limited.
func (q *Query) Execute(p *sim.Proc, st store.Store, ranges []Range) ([]ResultRow, error) {
	col := column(q.Spec.Column)
	keepVals := aggIndex(q.Spec.Aggs, "p50") >= 0 || aggIndex(q.Spec.Aggs, "p99") >= 0
	groups := map[string]*aggState{}
	for _, r := range ranges {
		for m, err := range apm.Series(p, st, r.Metric, r.From, r.To, q.cols) {
			if err != nil {
				return nil, err
			}
			if q.pred != nil && !q.pred(m) {
				continue
			}
			g := groupKey(q.Spec.GroupBy, m)
			v, agg := col(m), groups[g]
			if agg == nil {
				agg = &aggState{min: v, max: v}
				groups[g] = agg
			}
			agg.n++
			agg.sum += v
			if v < agg.min {
				agg.min = v
			}
			if v > agg.max {
				agg.max = v
			}
			if keepVals {
				agg.vals = append(agg.vals, v)
			}
		}
	}
	rows := finalize(groups, q.Spec.Aggs)
	return OrderLimit(rows, q.Spec.OrderBy, q.Spec.Aggs, q.Spec.Desc, q.Spec.Limit), nil
}
