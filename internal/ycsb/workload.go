// Package ycsb reimplements the core of the Yahoo! Cloud Serving Benchmark
// as used in the paper (§3): a workload generator over CRUD operations on
// 75-byte records (25-byte key, five 10-byte fields), closed-loop client
// threads for maximum-throughput runs, a target-rate throttle for the
// bounded-throughput experiment, and per-operation latency collection.
package ycsb

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/store"
)

// Workload is an operation mix (paper Table 1). Proportions must sum to 1.
// The zero value is invalid; start from a Table 1 preset or fill every
// proportion explicitly.
type Workload struct {
	Name       string
	ReadProp   float64
	ScanProp   float64
	InsertProp float64
	UpdateProp float64
	ScanLength int
	// Chooser selects keys for reads and scans (Uniform in the paper).
	Chooser ChooserKind
	// FieldBytes is the record's per-field payload size; 0 means the
	// paper's 10 bytes (5 fields x 10 bytes + 25-byte key = 75-byte
	// records). Scenarios vary it to benchmark other record shapes.
	FieldBytes int
}

// ChooserKind selects the request distribution.
type ChooserKind int

// Request distributions. The paper used Uniform; Zipfian and Latest are
// provided as extensions (they are YCSB's other standard distributions).
const (
	Uniform ChooserKind = iota
	Zipfian
	Latest
)

// Table 1 of the paper: workload mixes (% read / % scans / % inserts).
var (
	// WorkloadR is read-intensive: 95% reads, 5% inserts.
	WorkloadR = Workload{Name: "R", ReadProp: 0.95, InsertProp: 0.05, ScanLength: 50}
	// WorkloadRW balances reads and writes: 50% reads, 50% inserts.
	WorkloadRW = Workload{Name: "RW", ReadProp: 0.50, InsertProp: 0.50, ScanLength: 50}
	// WorkloadW is the APM insert stream: 1% reads, 99% inserts.
	WorkloadW = Workload{Name: "W", ReadProp: 0.01, InsertProp: 0.99, ScanLength: 50}
	// WorkloadRS splits the read half into reads and scans: 47/47/6.
	WorkloadRS = Workload{Name: "RS", ReadProp: 0.47, ScanProp: 0.47, InsertProp: 0.06, ScanLength: 50}
	// WorkloadRSW is the scan variant of RW: 25/25/50.
	WorkloadRSW = Workload{Name: "RSW", ReadProp: 0.25, ScanProp: 0.25, InsertProp: 0.50, ScanLength: 50}
)

// Workloads lists the Table 1 presets in paper order.
var Workloads = []Workload{WorkloadR, WorkloadRW, WorkloadW, WorkloadRS, WorkloadRSW}

// WorkloadByName resolves a Table 1 preset.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// Validate checks that proportions form a distribution.
func (w Workload) Validate() error {
	for _, p := range []float64{w.ReadProp, w.ScanProp, w.InsertProp, w.UpdateProp} {
		if p < 0 || p > 1 {
			return fmt.Errorf("ycsb: workload %s has proportion %g outside [0,1]", w.Name, p)
		}
	}
	sum := w.ReadProp + w.ScanProp + w.InsertProp + w.UpdateProp
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("ycsb: workload %s proportions sum to %f, want 1", w.Name, sum)
	}
	if w.ScanProp > 0 && w.ScanLength <= 0 {
		return fmt.Errorf("ycsb: workload %s has scans but no scan length", w.Name)
	}
	if w.FieldBytes < 0 {
		return fmt.Errorf("ycsb: workload %s has negative field size %d", w.Name, w.FieldBytes)
	}
	return nil
}

// HasScans reports whether the mix includes scan operations.
func (w Workload) HasScans() bool { return w.ScanProp > 0 }

// FieldSize returns the effective per-field payload size.
func (w Workload) FieldSize() int {
	if w.FieldBytes <= 0 {
		return store.FieldBytes
	}
	return w.FieldBytes
}

// IsPreset reports whether w is exactly one of the Table 1 presets (same
// name, same parameters). Preset-identical workloads share experiment
// cells — and therefore cached results — with the paper's figures.
func (w Workload) IsPreset() bool {
	for _, p := range Workloads {
		if w == p {
			return true
		}
	}
	return false
}

// pick draws an operation kind from the mix.
func (w Workload) pick(r float64) stats.OpKind {
	switch {
	case r < w.ReadProp:
		return stats.OpRead
	case r < w.ReadProp+w.ScanProp:
		return stats.OpScan
	case r < w.ReadProp+w.ScanProp+w.InsertProp:
		return stats.OpInsert
	default:
		return stats.OpUpdate
	}
}

// keyChooser picks existing record numbers according to the distribution.
type keyChooser struct {
	kind  ChooserKind
	theta float64
}

func newChooser(kind ChooserKind) *keyChooser {
	return &keyChooser{kind: kind, theta: 0.99}
}

// Choose returns a record number in [0, n) given uniform draws u1, u2 in
// [0, 1).
func (c *keyChooser) Choose(n int64, u1, u2 float64) int64 {
	if n <= 0 {
		return 0
	}
	switch c.kind {
	case Zipfian:
		// Bounded-Pareto approximation of the zipf(0.99) popularity curve.
		// Ranks are scrambled deterministically so hot keys are spread
		// through the keyspace (as YCSB's scrambled zipfian does).
		rank := int64(float64(n) * math.Pow(u1, 4))
		if rank >= n {
			rank = n - 1
		}
		return (rank*2654435761 + 40503) % n
	case Latest:
		// Skew toward recently inserted records.
		back := int64(float64(n) * math.Pow(u1, 4))
		idx := n - 1 - back
		if idx < 0 {
			idx = 0
		}
		return idx
	default:
		return int64(u1 * float64(n))
	}
}
