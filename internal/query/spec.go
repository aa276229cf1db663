// Package query is a small analytic layer over paginated store scans,
// modeling the APM read side the paper motivates (§2): a dashboard issues
// per-metric time-range scans (apm.Series) and pipes their rows through
// filter → project → group-by aggregation (including percentiles), then
// orders and limits the grouped output. Rows stream through one range loop
// into per-group state; no stage materializes the raw measurement set.
//
// Queries are declared as a Spec (JSON-friendly, used by the scenario
// vocabulary), normalized to a canonical string that the harness embeds in
// cell cache keys, and planned into a pipeline with Plan.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apm"
)

// Spec declares one analytic query shape. Zero values take documented
// defaults in Normalize; the canonical form (String) spells every field
// out so cache keys never shift when defaults change.
type Spec struct {
	// Name labels the query in mixes, progress lines and figures.
	Name string `json:"name"`
	// Weight is the query's share of the mix (default 1).
	Weight float64 `json:"weight,omitempty"`
	// WindowSec is the scanned time range per metric, ending at the
	// dataset's newest timestamp (default 600: the paper's "last 10
	// minutes" window class).
	WindowSec int64 `json:"windowSec,omitempty"`
	// GroupBy buckets rows: "metric" (default), "kind" (the metric
	// name's last path component) or "none" (one global group).
	GroupBy string `json:"groupBy,omitempty"`
	// Column is the projected value column: "value" (default), "min" or
	// "max".
	Column string `json:"column,omitempty"`
	// Aggs are the aggregates computed per group, from count, avg, min,
	// max, p50, p99 (default avg).
	Aggs []string `json:"aggs,omitempty"`
	// Filter is an optional row predicate "column op constant" applied
	// before grouping, e.g. "value>50"; ops are < <= > >=.
	Filter string `json:"filter,omitempty"`
	// OrderBy sorts the grouped output by "group" (default) or by one of
	// the Aggs.
	OrderBy string `json:"orderBy,omitempty"`
	// Desc reverses the order.
	Desc bool `json:"desc,omitempty"`
	// Limit truncates the grouped output (0 = unlimited).
	Limit int `json:"limit,omitempty"`
}

// groupKinds and columns enumerate the operator vocabulary; columns maps
// each column name to the apm column it reads.
var (
	groupKinds = map[string]bool{"none": true, "metric": true, "kind": true}
	columns    = map[string]apm.Columns{"value": apm.ColValue, "min": apm.ColMin, "max": apm.ColMax}
	aggKinds   = map[string]bool{"count": true, "avg": true, "min": true, "max": true, "p50": true, "p99": true}
	filterOps  = []string{"<=", ">=", "<", ">"} // two-char ops first
)

// Normalize applies defaults and validates the spec in place.
func (s *Spec) Normalize() error {
	if s.Name == "" {
		return fmt.Errorf("query: spec needs a name")
	}
	for _, r := range s.Name {
		if r != '-' && r != '_' && !('a' <= r && r <= 'z') && !('A' <= r && r <= 'Z') && !('0' <= r && r <= '9') {
			return fmt.Errorf("query: name %q: use letters, digits, - and _", s.Name)
		}
	}
	if s.Weight == 0 {
		s.Weight = 1
	}
	if s.Weight < 0 {
		return fmt.Errorf("query: %s: negative weight", s.Name)
	}
	if s.WindowSec == 0 {
		s.WindowSec = 600
	}
	if s.WindowSec < 0 {
		return fmt.Errorf("query: %s: negative window", s.Name)
	}
	if s.GroupBy == "" {
		s.GroupBy = "metric"
	}
	if !groupKinds[s.GroupBy] {
		return fmt.Errorf("query: %s: unknown groupBy %q (none, metric, kind)", s.Name, s.GroupBy)
	}
	if s.Column == "" {
		s.Column = "value"
	}
	if columns[s.Column] == 0 {
		return fmt.Errorf("query: %s: unknown column %q (value, min, max)", s.Name, s.Column)
	}
	if len(s.Aggs) == 0 {
		s.Aggs = []string{"avg"}
	}
	seen := map[string]bool{}
	for _, a := range s.Aggs {
		if !aggKinds[a] {
			return fmt.Errorf("query: %s: unknown aggregate %q (count, avg, min, max, p50, p99)", s.Name, a)
		}
		if seen[a] {
			return fmt.Errorf("query: %s: duplicate aggregate %q", s.Name, a)
		}
		seen[a] = true
	}
	if s.Filter != "" {
		if _, _, _, err := parseFilter(s.Filter); err != nil {
			return fmt.Errorf("query: %s: %w", s.Name, err)
		}
	}
	if s.OrderBy == "" {
		s.OrderBy = "group"
	}
	if s.OrderBy != "group" && !seen[s.OrderBy] {
		return fmt.Errorf("query: %s: orderBy %q is not \"group\" or a listed aggregate", s.Name, s.OrderBy)
	}
	if s.Limit < 0 {
		return fmt.Errorf("query: %s: negative limit", s.Name)
	}
	return nil
}

// parseFilter splits "column op constant" into its parts.
func parseFilter(f string) (col, op string, val float64, err error) {
	for _, o := range filterOps {
		if i := strings.Index(f, o); i > 0 {
			col, op = f[:i], o
			v, perr := strconv.ParseFloat(f[i+len(o):], 64)
			if perr != nil {
				return "", "", 0, fmt.Errorf("filter %q: bad constant", f)
			}
			if columns[col] == 0 {
				return "", "", 0, fmt.Errorf("filter %q: unknown column %q", f, col)
			}
			return col, op, v, nil
		}
	}
	return "", "", 0, fmt.Errorf("filter %q: want column<op>constant with op in < <= > >=", f)
}

// String renders the normalized spec's canonical form, the encoding cell
// cache keys embed: every field explicit, fixed order, so two specs are
// equivalent iff their canonical strings match.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(w=%g,win=%d,group=%s,col=%s,aggs=%s,filter=%s,order=%s",
		s.Name, s.Weight, s.WindowSec, s.GroupBy, s.Column,
		strings.Join(s.Aggs, "|"), s.Filter, s.OrderBy)
	if s.Desc {
		b.WriteString(" desc")
	}
	fmt.Fprintf(&b, ",limit=%d)", s.Limit)
	return b.String()
}

// Mix is a weighted set of query specs.
type Mix []Spec

// Normalize normalizes every spec and rejects duplicates and empty mixes.
func (m Mix) Normalize() error {
	if len(m) == 0 {
		return fmt.Errorf("query: empty mix")
	}
	names := map[string]bool{}
	for i := range m {
		if err := m[i].Normalize(); err != nil {
			return err
		}
		if names[m[i].Name] {
			return fmt.Errorf("query: duplicate query name %q", m[i].Name)
		}
		names[m[i].Name] = true
	}
	return nil
}

// String joins the canonical specs with "+".
func (m Mix) String() string {
	parts := make([]string, len(m))
	for i, s := range m {
		parts[i] = s.String()
	}
	return strings.Join(parts, "+")
}

// DashboardPanels returns the dashboard mix the built-in apm-dashboard
// figure serves, one spec per panel. Each call returns a fresh mix, since
// Normalize edits specs in place.
func DashboardPanels() Mix {
	return Mix{
		// The host overview panel: mean and peak of every metric on one
		// host over the last 10 minutes (the paper's headline window).
		{Name: "overview", Weight: 4, WindowSec: 600, Aggs: []string{"avg", "max"}},
		// The hot-components panel: a longer window, filtered to
		// saturated samples, top five series by occurrence count.
		{Name: "hotspots", Weight: 2, WindowSec: 1800, Filter: "value>80",
			Aggs: []string{"count", "avg"}, OrderBy: "count", Desc: true, Limit: 5},
		// The tail-latency panel: per metric kind, median and p99 over
		// the last hour.
		{Name: "tails", Weight: 1, WindowSec: 3600, GroupBy: "kind",
			Aggs: []string{"p50", "p99"}},
	}
}

// ParseMix parses the canonical encoding back into a normalized mix; it
// round-trips String exactly, which is what lets a cell carry only the
// canonical string (cache keys, the farm wire format) and still rebuild
// its query plan. Specs are split only at ")+" boundaries: a single spec
// may itself contain "+" (a weight rendered as 1e+10, a filter constant
// such as 1e+5 or +5), but never ")".
func ParseMix(enc string) (Mix, error) {
	if enc == "" {
		return nil, fmt.Errorf("query: empty mix")
	}
	var m Mix
	parts := strings.Split(enc, ")+")
	for i, part := range parts {
		if i < len(parts)-1 {
			part += ")"
		}
		s, err := parseSpec(part)
		if err != nil {
			return nil, err
		}
		m = append(m, s)
	}
	if err := m.Normalize(); err != nil {
		return nil, err
	}
	return m, nil
}

func parseSpec(enc string) (Spec, error) {
	open := strings.IndexByte(enc, '(')
	if open < 1 || !strings.HasSuffix(enc, ")") {
		return Spec{}, fmt.Errorf("query: malformed spec %q", enc)
	}
	s := Spec{Name: enc[:open]}
	for _, kv := range strings.Split(enc[open+1:len(enc)-1], ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("query: malformed parameter %q in %q", kv, enc)
		}
		var err error
		switch k {
		case "w":
			s.Weight, err = strconv.ParseFloat(v, 64)
		case "win":
			s.WindowSec, err = strconv.ParseInt(v, 10, 64)
		case "group":
			s.GroupBy = v
		case "col":
			s.Column = v
		case "aggs":
			if v != "" {
				s.Aggs = strings.Split(v, "|")
			}
		case "filter":
			s.Filter = v
		case "order":
			if o, ok := strings.CutSuffix(v, " desc"); ok {
				s.OrderBy, s.Desc = o, true
			} else {
				s.OrderBy = v
			}
		case "limit":
			s.Limit, err = strconv.Atoi(v)
		default:
			return Spec{}, fmt.Errorf("query: unknown parameter %q in %q", k, enc)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("query: bad %s in %q: %w", k, enc, err)
		}
	}
	return s, nil
}

// pick chooses a spec index by weight from a uniform [0,1) draw.
func (m Mix) pick(u float64) int {
	var total float64
	for _, s := range m {
		total += s.Weight
	}
	x := u * total
	for i, s := range m {
		if x < s.Weight {
			return i
		}
		x -= s.Weight
	}
	return len(m) - 1
}

// aggIndex returns the index of agg in aggs (OrderBy resolution).
func aggIndex(aggs []string, agg string) int {
	for i, a := range aggs {
		if a == agg {
			return i
		}
	}
	return -1
}

// sortedGroups returns the map's keys in lexicographic order (grouped
// output must be deterministic regardless of map iteration).
func sortedGroups[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
