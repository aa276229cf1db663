package store_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/cluster"
	"repro/internal/lsm"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/store"
	"repro/internal/stores/mysql"
)

// keyList is a Records builder over fixed keys.
type keyList []string

func (k keyList) AppendKey(dst []byte, i int64) []byte { return append(dst, k[i]...) }
func (k keyList) Fields(i int64) store.Fields          { return store.MakeFields(i) }

func records(keys []string) store.Records {
	return store.Records{Count: int64(len(keys)), NewBuilder: func() store.Builder { return keyList(keys) }}
}

// subject is something with a load phase: load feeds it keys, seal ends
// the load phase, read and write are an operation after it.
type subject struct {
	load        func(keys []string)
	seal        func()
	read, write func(key string)
}

// timed runs op as a simulation process to its end.
func timed(e *sim.Engine, op func(p *sim.Proc)) {
	e.Go("op", op)
	e.Run(0)
}

func btreeSubject() subject {
	tr := btree.New(btree.Config{LeafCap: 4, InternalCap: 4, BufferPages: 8})
	return subject{
		load: func(keys []string) {
			for i, k := range keys {
				tr.Load(k, store.MakeFields(int64(i)))
			}
		},
		seal:  tr.Seal,
		read:  func(k string) { tr.Get(k) },
		write: func(k string) { tr.Put(k, store.MakeFields(0)) },
	}
}

func lsmSubject() subject {
	e := sim.NewEngine(1)
	// 1 KiB flushes: a batch of about 14 records is cut, sorted and
	// checked while the load runs.
	tr := lsm.New(lsm.Config{
		Node:       cluster.New(e, cluster.ClusterM(1)).Nodes[0],
		FlushBytes: 1 << 10,
		Overhead:   sstable.Overhead{PerEntry: 10, PerCell: 20},
	})
	return subject{
		load: func(keys []string) {
			for i, k := range keys {
				tr.LoadDirect(k, store.MakeFields(int64(i)))
			}
		},
		seal:  tr.Seal,
		read:  func(k string) { timed(e, func(p *sim.Proc) { tr.Get(p, k) }) },
		write: func(k string) { timed(e, func(p *sim.Proc) { tr.Put(p, k, store.MakeFields(0)) }) },
	}
}

// storeSubject is a four-shard MySQL deployment loaded through LoadAll at
// fanout, which seals every engine after the load.
func storeSubject(fanout int) subject {
	e := sim.NewEngine(1)
	s := mysql.New(cluster.New(e, cluster.ClusterM(4).Scale(0.01)), mysql.Options{})
	return subject{
		load:  func(keys []string) { store.LoadAll(s, records(keys), fanout) },
		seal:  func() { store.LoadAll(s, records(nil), fanout) },
		read:  func(k string) { timed(e, func(p *sim.Proc) { s.Read(p, k) }) },
		write: func(k string) { timed(e, func(p *sim.Proc) { s.Insert(p, k, store.MakeFields(0)) }) },
	}
}

// TestLoadContract pins the load contract LoadAll states: a load feeds
// distinct keys into engines nothing has read, written or sealed, and a
// load that breaks it panics, in the B-tree and LSM engines and through
// LoadAll on a store, serially and on four workers.
func TestLoadContract(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = store.Key(int64(i))
	}
	// Keys that share their first 16 bytes, so only the byte-wise compare
	// past the prefix words tells them apart.
	grid := make([]string, 64)
	for i := range grid {
		grid[i] = fmt.Sprintf("Host000/Agent/Component%03d/Metric", i)
	}
	repeat := func(keys []string) []string { return slices.Insert(slices.Clone(keys), 6, keys[2]) }
	subjects := []struct {
		name string
		mk   func() subject
	}{
		{"btree", btreeSubject},
		{"lsm", lsmSubject},
		{"mysql-fan-out-1", func() subject { return storeSubject(1) }},
		{"mysql-fan-out-4", func() subject { return storeSubject(4) }},
	}
	for _, c := range []struct {
		name  string
		steps func(s subject)
		want  string
	}{
		{"distinct keys", func(s subject) { s.load(keys); s.seal(); s.read(keys[1]) }, ""},
		{"repeated key", func(s subject) { s.load(repeat(keys)); s.seal() }, "repeats a key"},
		{"repeated key sharing 16 bytes", func(s subject) { s.load(repeat(grid)); s.seal() }, "repeats a key"},
		{"load after seal", func(s subject) { s.load(keys[:32]); s.seal(); s.load(keys[32:]) }, "after Seal"},
		{"load after get", func(s subject) { s.read(keys[0]); s.load(keys) }, "after Seal"},
		{"load after put", func(s subject) { s.write(keys[0]); s.load(keys[1:]) }, "after Seal"},
		{"load after an empty seal", func(s subject) { s.seal(); s.load(keys) }, "after Seal"},
	} {
		for _, sub := range subjects {
			t.Run(c.name+"/"+sub.name, func(t *testing.T) {
				defer func() {
					r := recover()
					if c.want == "" && r != nil {
						t.Fatalf("panic %v on a load that keeps the contract", r)
					}
					if c.want != "" && (r == nil || !strings.Contains(fmt.Sprint(r), c.want)) {
						t.Fatalf("panic %v, want one containing %q", r, c.want)
					}
				}()
				c.steps(sub.mk())
			})
		}
	}
}
