package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/cassandra"
)

// TestParallelLoadMatchesSerial pins the parallel load's contract: filling
// a deployment's nodes on several workers leaves every engine exactly as
// the serial load does, so no result can tell the two apart. GOMAXPROCS is
// fixed at 8 for the test, so the fan-out rule gives the serial runner
// (8 cell workers) fan-out 1 and the wide runner (2 cell workers) fan-out
// min(nodes, 4) on any machine.
func TestParallelLoadMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cfg := Config{
		// 1000 records per node against a 16 KB flush threshold: several
		// memtable flushes per node and the compactions they trigger.
		Scale:          0.001,
		RecordsPerNode: 1_000_000,
		Warmup:         10 * sim.Millisecond,
		Measure:        30 * sim.Millisecond,
	}
	serial, wide := NewRunner(cfg), NewRunner(cfg)
	serial.Workers, wide.Workers = 8, 2

	type deploy struct {
		sys      System
		nodes    int
		variants string
	}
	var deps []deploy
	for _, sys := range AllSystems {
		for _, n := range []int{1, 4, 8} {
			deps = append(deps, deploy{sys, n, ""})
		}
	}
	deps = append(deps,
		deploy{Cassandra, 4, "replication=3"},
		deploy{Cassandra, 8, "tokens=random"})

	for _, d := range deps {
		name := fmt.Sprintf("%s-%d", d.sys, d.nodes)
		if d.variants != "" {
			name += "-" + d.variants
		}
		t.Run(name, func(t *testing.T) {
			load := Cell{System: d.sys, Nodes: d.nodes, Variants: d.variants, LoadOnly: true}
			if got, want := serial.loadFanout(load), 1; got != want {
				t.Fatalf("serial runner fan-out %d, want %d", got, want)
			}
			if got, want := wide.loadFanout(load), min(d.nodes, 4); got != want {
				t.Fatalf("wide runner fan-out %d, want %d", got, want)
			}
			a, err := serial.execute(load, serial.key(load), 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := wide.execute(load, wide.key(load), 0)
			if err != nil {
				t.Fatal(err)
			}
			assertSameDeployment(t, a.dep, b.dep)
			if cs, ok := a.dep.Store.(*cassandra.Store); ok {
				var compactions int64
				for i := 0; i < cs.Nodes(); i++ {
					compactions += cs.Tree(i).Compactions()
				}
				if compactions == 0 {
					t.Fatal("the load compacted nothing: the dataset is too small to cover compaction")
				}
			}

			workloads := []string{"R", "W"}
			if SupportsScans(d.sys) {
				workloads = append(workloads, "RS")
			}
			for _, w := range workloads {
				// A few clients per node keep the runs short; they still
				// read, write and scan every node's loaded engines.
				variants := "conns=16"
				if d.variants != "" {
					variants = d.variants + "," + variants
				}
				c := Cell{System: d.sys, Nodes: d.nodes, Variants: variants, Workload: w}
				ra, err := serial.Run(c)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := wide.Run(c)
				if err != nil {
					t.Fatal(err)
				}
				ja, _ := json.Marshal(ra)
				jb, _ := json.Marshal(rb)
				if !bytes.Equal(ja, jb) {
					t.Fatalf("workload %s: results differ\nserial load: %s\nparallel load: %s", w, ja, jb)
				}
			}
		})
	}
}

// TestStateDiffSeesOneRecord guards the comparator the load test relies
// on: one record that differs on one node must show up as a difference.
// Both loaded deployments then take the same timed Insert, with field
// values of the same size but different bytes, so the two runs keep the
// same clock and event history and differ in that record alone.
func TestStateDiffSeesOneRecord(t *testing.T) {
	r := NewRunner(Config{Scale: 0.001, RecordsPerNode: 1_000_000})
	c := Cell{System: Cassandra, Nodes: 4, LoadOnly: true}
	a, err := r.execute(c, r.key(c), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.execute(c, r.key(c), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := stateDiff(reflect.ValueOf(a.dep), reflect.ValueOf(b.dep), map[[3]uintptr]bool{}); d != "" {
		t.Fatalf("two identical loads differ at dep%s", d)
	}
	insert := func(dep *Deployment, value int64) {
		dep.Engine.Go("insert", func(p *sim.Proc) {
			if err := dep.Store.Insert(p, store.Key(1<<40), store.MakeFields(value)); err != nil {
				t.Error(err)
			}
		})
		dep.Engine.Run(0)
	}
	insert(a.dep, 1)
	insert(b.dep, 2)
	if x, y := a.dep.Engine.Now(), b.dep.Engine.Now(); x != y {
		t.Fatalf("the inserts ended at %v and %v: the runs differ in more than a record", x, y)
	}
	if d := stateDiff(reflect.ValueOf(a.dep), reflect.ValueOf(b.dep), map[[3]uintptr]bool{}); d == "" {
		t.Fatal("comparator missed a record that differs between the deployments")
	} else {
		t.Logf("first difference at dep%s", d)
	}
}

// assertSameDeployment checks that two loaded deployments are identical:
// structurally, field by field, every engine (LSM table generations, sizes
// and filters, memtable arenas, B-tree pages, height and buffer pool, WAL
// and slab state); then the store's accounting, every node's disk use and
// the engine RNG's next draw.
func assertSameDeployment(t *testing.T, a, b *Deployment) {
	t.Helper()
	// Structure first: DiskUsage would run a B-tree build the load left
	// deferred, hiding a loader that skipped SealNode.
	if d := stateDiff(reflect.ValueOf(a), reflect.ValueOf(b), map[[3]uintptr]bool{}); d != "" {
		t.Fatalf("deployments differ at dep%s", d)
	}
	if x, y := a.Store.DiskUsage(), b.Store.DiskUsage(); x != y {
		t.Fatalf("DiskUsage: serial %d, parallel %d", x, y)
	}
	if x, y := a.Store.SlabBytes(), b.Store.SlabBytes(); x != y {
		t.Fatalf("SlabBytes: serial %d, parallel %d", x, y)
	}
	for i := range a.Clust.Nodes {
		if x, y := a.Clust.Nodes[i].DiskUsed(), b.Clust.Nodes[i].DiskUsed(); x != y {
			t.Fatalf("node %d DiskUsed: serial %d, parallel %d", i, x, y)
		}
	}
	if x, y := a.Engine.Rand().Int63(), b.Engine.Rand().Int63(); x != y {
		t.Fatalf("engine RNG next draw: serial %d, parallel %d", x, y)
	}
}

// stateDiff walks a and b in lockstep and returns the path of their first
// difference (relative to a and b), or "". Unexported fields are compared
// too. Funcs, channels and unsafe pointers compare by nil-ness only (two
// deployments never share closures), maps keyed by pointers by length
// only, and pointer pairs already visited are skipped, which keeps cyclic
// structures (the B-tree buffer pool's LRU list) finite.
func stateDiff(a, b reflect.Value, seen map[[3]uintptr]bool) string {
	if a.Type() != b.Type() {
		return ": type"
	}
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf(": %v != %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf(": %d != %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf(": %d != %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf(": %g != %g", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf(": %q != %q", a.String(), b.String())
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() {
			return ": nil-ness"
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return ": nil-ness"
			}
			return ""
		}
		if a.Kind() == reflect.Pointer {
			k := [3]uintptr{a.Pointer(), b.Pointer(), a.Type().Elem().Size()}
			if seen[k] {
				return ""
			}
			seen[k] = true
		}
		return stateDiff(a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := stateDiff(a.Field(i), b.Field(i), seen); d != "" {
				return "." + a.Type().Field(i).Name + d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": len %d != %d", a.Len(), b.Len())
		}
		if a.Kind() == reflect.Slice && a.Cap() != b.Cap() {
			return fmt.Sprintf(": cap %d != %d", a.Cap(), b.Cap())
		}
		if a.Type().Elem().Kind() == reflect.Uint8 && a.Kind() == reflect.Slice {
			if i := firstByteDiff(a.Bytes(), b.Bytes()); i >= 0 {
				return fmt.Sprintf("[%d]: byte", i)
			}
			return ""
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(a.Index(i), b.Index(i), seen); d != "" {
				return fmt.Sprintf("[%d]", i) + d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": len %d != %d", a.Len(), b.Len())
		}
		switch a.Type().Key().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
			return ""
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("[%v]: missing", it.Key())
			}
			if d := stateDiff(it.Value(), bv, seen); d != "" {
				return fmt.Sprintf("[%v]", it.Key()) + d
			}
		}
	}
	return ""
}

func firstByteDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
