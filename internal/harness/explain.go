package harness

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Explanation reports where a cell's time went: per-node utilization of
// CPU, disks and NIC over the run, plus the headline metrics. It answers
// the "why is this system slow here" questions the paper's §6 discusses.
type Explanation struct {
	Cell       Cell
	Throughput float64
	Errors     int64
	Nodes      []NodeUtilization
	Read       stats.LatencySummary
	Insert     stats.LatencySummary
	Update     stats.LatencySummary
	Scan       stats.LatencySummary
}

// NodeUtilization is one node's resource busy fractions.
type NodeUtilization struct {
	Node     int
	CPU      float64
	Disk     float64
	NIC      float64
	DiskUsed int64
	RAMUsed  int64
}

// Explain executes one cell's first repetition through the same lifecycle
// and seed as Run — uncached, since it needs the live deployment — and
// returns the utilization breakdown, so the explanation describes the run
// that produced the cell's number (its whole number at one repetition).
// Throttled, faulted and query cells are explained like plain ones; only
// cells that drive nothing (LoadOnly) or that the runner rejects are
// refused.
func (r *Runner) Explain(c Cell) (*Explanation, error) {
	if c.LoadOnly {
		return nil, fmt.Errorf("harness: explain needs a driven run, and load-only cell %s drives nothing", r.key(c))
	}
	x, err := r.execute(c, r.key(c), 0)
	if err != nil {
		return nil, err
	}
	sum := x.col.Summarize()
	ex := &Explanation{
		Cell:       c,
		Throughput: sum.Throughput,
		Errors:     sum.Errors,
		Read:       sum.Read,
		Insert:     sum.Insert,
		Update:     sum.Update,
		Scan:       sum.Scan,
	}
	for _, n := range x.dep.Clust.Nodes {
		ex.Nodes = append(ex.Nodes, NodeUtilization{
			Node:     n.ID,
			CPU:      n.CPU.Utilization(),
			Disk:     n.DiskBusy(),
			NIC:      n.NIC.Utilization(),
			DiskUsed: n.DiskUsed(),
			RAMUsed:  n.RAMUsed(),
		})
	}
	return ex, nil
}

// Render formats the explanation as a text report.
func (e *Explanation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s x%d, workload %s", e.Cell.System, e.Cell.Nodes, e.Cell.workloadName())
	if e.Cell.Variants != "" {
		fmt.Fprintf(&b, " [%s]", e.Cell.Variants)
	}
	if e.Cell.ClusterD {
		b.WriteString(" (Cluster D)")
	}
	fmt.Fprintf(&b, ": %.0f ops/sec, %d errors\n", e.Throughput, e.Errors)
	fmt.Fprintf(&b, "  read:   n=%-8d mean=%-10v p99=%v\n", e.Read.N, e.Read.Mean, e.Read.P99)
	fmt.Fprintf(&b, "  insert: n=%-8d mean=%-10v p99=%v\n", e.Insert.N, e.Insert.Mean, e.Insert.P99)
	if e.Update.N > 0 {
		fmt.Fprintf(&b, "  update: n=%-8d mean=%-10v p99=%v\n", e.Update.N, e.Update.Mean, e.Update.P99)
	}
	if e.Scan.N > 0 {
		fmt.Fprintf(&b, "  scan:   n=%-8d mean=%-10v p99=%v\n", e.Scan.N, e.Scan.Mean, e.Scan.P99)
	}
	fmt.Fprintf(&b, "  %-6s%8s%8s%8s%14s\n", "node", "cpu", "disk", "nic", "disk used")
	for _, n := range e.Nodes {
		fmt.Fprintf(&b, "  %-6d%7.0f%%%7.0f%%%7.0f%%%13.1fM\n",
			n.Node, n.CPU*100, n.Disk*100, n.NIC*100, float64(n.DiskUsed)/1e6)
	}
	// Name the bottleneck: the resource class with the highest mean busy.
	var cpu, disk, nic float64
	for _, n := range e.Nodes {
		cpu += n.CPU
		disk += n.Disk
		nic += n.NIC
	}
	k := float64(len(e.Nodes))
	cpu, disk, nic = cpu/k, disk/k, nic/k
	bottleneck, busiest := "cpu", cpu
	if disk > busiest {
		bottleneck, busiest = "disk", disk
	}
	if nic > busiest {
		bottleneck, busiest = "network", nic
	}
	if busiest < 0.5 {
		bottleneck = "client concurrency (no server resource saturated)"
	}
	fmt.Fprintf(&b, "  bottleneck: %s\n", bottleneck)
	return b.String()
}
