// Package stores_test runs the cross-cutting contract tests every store
// model must satisfy: CRUD correctness through the simulation, scan
// semantics, and load accounting.
package stores_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/stores/cassandra"
	"repro/internal/stores/hbase"
	"repro/internal/stores/mysql"
	"repro/internal/stores/redis"
	"repro/internal/stores/voldemort"
	"repro/internal/stores/voltdb"
	"repro/internal/ycsb"
)

// deployAll builds every store on a fresh small cluster.
func deployAll(t *testing.T, nodes int) map[string]func() (*sim.Engine, store.Store) {
	t.Helper()
	mk := func(build func(c *cluster.Cluster) store.Store) func() (*sim.Engine, store.Store) {
		return func() (*sim.Engine, store.Store) {
			e := sim.NewEngine(1)
			c := cluster.New(e, cluster.ClusterM(nodes).Scale(0.01))
			return e, build(c)
		}
	}
	return map[string]func() (*sim.Engine, store.Store){
		"cassandra": mk(func(c *cluster.Cluster) store.Store {
			return cassandra.New(c, cassandra.Options{MemtableFlushBytes: 64 << 10})
		}),
		"hbase": mk(func(c *cluster.Cluster) store.Store {
			return hbase.New(c, hbase.Options{MemstoreFlushBytes: 64 << 10})
		}),
		"voldemort": mk(func(c *cluster.Cluster) store.Store {
			return voldemort.New(c)
		}),
		"redis": mk(func(c *cluster.Cluster) store.Store {
			return redis.New(c, redis.Options{})
		}),
		"voltdb": mk(func(c *cluster.Cluster) store.Store {
			return voltdb.New(c, voltdb.Options{})
		}),
		"mysql": mk(func(c *cluster.Cluster) store.Store {
			return mysql.New(c, mysql.Options{BinLog: true})
		}),
	}
}

func TestContractInsertThenRead(t *testing.T) {
	for name, deploy := range deployAll(t, 3) {
		t.Run(name, func(t *testing.T) {
			e, s := deploy()
			e.Go("w", func(p *sim.Proc) {
				for i := int64(0); i < 200; i++ {
					if err := s.Insert(p, store.Key(i), store.MakeFields(i)); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
				}
				for i := int64(0); i < 200; i += 17 {
					got, err := s.Read(p, store.Key(i))
					if err != nil {
						t.Errorf("read %d: %v", i, err)
						return
					}
					want := store.MakeFields(i)
					if got.Len() != len(want) || string(got.Field(0)) != string(want[0]) {
						t.Errorf("read %d: got %q want %q", i, got.Field(0), want[0])
					}
				}
			})
			e.Run(0)
		})
	}
}

func TestContractReadMissing(t *testing.T) {
	for name, deploy := range deployAll(t, 2) {
		t.Run(name, func(t *testing.T) {
			e, s := deploy()
			e.Go("r", func(p *sim.Proc) {
				if _, err := s.Read(p, "user000000000000000000000"); err != store.ErrNotFound {
					t.Errorf("read of missing key: err = %v, want ErrNotFound", err)
				}
			})
			e.Run(0)
		})
	}
}

func TestContractLoadThenRead(t *testing.T) {
	for name, deploy := range deployAll(t, 4) {
		t.Run(name, func(t *testing.T) {
			e, s := deploy()
			ycsb.Load(s, 500)
			if e.Now() != 0 {
				t.Fatal("Load consumed virtual time")
			}
			e.Go("r", func(p *sim.Proc) {
				for i := int64(0); i < 500; i += 31 {
					if _, err := s.Read(p, store.Key(i)); err != nil {
						t.Errorf("read %d after load: %v", i, err)
					}
				}
			})
			e.Run(0)
		})
	}
}

func TestContractScanOrderAndBound(t *testing.T) {
	type scanCase struct {
		deploy func() (*sim.Engine, store.Store)
		start  string
		count  int
	}
	cases := map[string]scanCase{}
	for name, deploy := range deployAll(t, 3) {
		if name != "voldemort" {
			cases[name] = scanCase{deploy, store.Key(0), 20}
		}
	}
	// From a tail start key the owner cannot fill the page, so the ring
	// walk continues to successors holding replicas of the keys it already
	// returned; the page must still hold each key once.
	cases["cassandra-rf3"] = scanCase{func() (*sim.Engine, store.Store) {
		e := sim.NewEngine(1)
		c := cluster.New(e, cluster.ClusterM(4).Scale(0.01))
		return e, cassandra.New(c, cassandra.Options{MemtableFlushBytes: 64 << 10, ReplicationFactor: 3})
	}, "user017", 50}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			e, s := tc.deploy()
			atOrAfter := 0
			ycsb.Load(s, 300)
			for i := int64(0); i < 300; i++ {
				if store.Key(i) >= tc.start {
					atOrAfter++
				}
			}
			want := min(tc.count, atOrAfter)
			e.Go("r", func(p *sim.Proc) {
				recs, err := s.Scan(p, tc.start, tc.count)
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if len(recs) != want {
					t.Errorf("scan returned %d records, want %d", len(recs), want)
					return
				}
				for i := 1; i < len(recs); i++ {
					if recs[i].Key <= recs[i-1].Key {
						t.Errorf("scan out of order at %d: %s <= %s", i, recs[i].Key, recs[i-1].Key)
					}
				}
				if recs[0].Key < tc.start {
					t.Errorf("scan returned key %s below start %s", recs[0].Key, tc.start)
				}
			})
			e.Run(0)
		})
	}
}

// TestScanReturnsGlobalPrefix checks the stores whose shards hold disjoint
// key sets against a sorted list of every loaded key: Scan(start, count)
// must return exactly the first count loaded keys >= start, so a merge
// that drops or skips a shard's rows fails here even though its page is
// still ordered and bounded. Cassandra is left out: its scan returns a
// node-local sample of keys >= start, not the global prefix.
func TestScanReturnsGlobalPrefix(t *testing.T) {
	const n, count = 300, 20
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key(int64(i))
	}
	slices.Sort(keys)
	starts := []string{
		"",              // before every key
		keys[0],         // the first key
		keys[150],       // a loaded key
		keys[150] + "!", // between two loaded keys
		keys[n-7],       // a page that runs off the end
		keys[n-1],       // the last key
		keys[n-1] + "!", // past the last key
	}
	all := deployAll(t, 3)
	for _, name := range []string{"redis", "voltdb", "mysql", "hbase"} {
		t.Run(name, func(t *testing.T) {
			e, s := all[name]()
			ycsb.Load(s, n)
			e.Go("r", func(p *sim.Proc) {
				for _, start := range starts {
					want := globalPrefix(keys, start, count)
					recs, err := s.Scan(p, start, count)
					if err != nil {
						t.Errorf("scan from %q: %v", start, err)
						return
					}
					got := make([]string, len(recs))
					for i, r := range recs {
						got[i] = r.Key
					}
					if !slices.Equal(got, want) {
						t.Errorf("scan from %q:\n got %v\nwant %v", start, got, want)
					}
				}
			})
			e.Run(0)
		})
	}
}

// globalPrefix is the page a scan of the sorted key set must return: the
// first count keys >= start.
func globalPrefix(keys []string, start string, count int) []string {
	from, _ := slices.BinarySearch(keys, start)
	return keys[from:min(from+count, len(keys))]
}

// TestScanRunsNotShared drives two processes whose scans overlap across
// the fan-out parks of the stores that recycle their per-partition run
// buffers. Every page must still hold the bytes it was returned with after
// the other process's later scans, and equal the global prefix.
func TestScanRunsNotShared(t *testing.T) {
	const n, count, rounds = 300, 20, 8
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key(int64(i))
	}
	slices.Sort(keys)
	starts := [2]string{keys[3], keys[150] + "!"}
	render := func(recs []store.Record) string {
		var b strings.Builder
		for _, r := range recs {
			b.WriteString(r.Key)
			for i := range r.Fields.Len() {
				fmt.Fprintf(&b, "|%s", r.Fields.Field(i))
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, name := range []string{"redis", "voltdb"} {
		t.Run(name, func(t *testing.T) {
			e, s := deployAll(t, 2)[name]()
			ycsb.Load(s, n)
			type page struct {
				start      string
				recs       []store.Record
				snap       string
				begin, end sim.Time
			}
			var pages [2][]page
			for proc := range 2 {
				e.Go(fmt.Sprint("scan", proc), func(p *sim.Proc) {
					for r := range rounds {
						start := starts[(proc+r)%2]
						begin := p.Now()
						recs, err := s.Scan(p, start, count)
						if err != nil {
							t.Errorf("scan from %q: %v", start, err)
							return
						}
						pages[proc] = append(pages[proc], page{start, recs, render(recs), begin, p.Now()})
					}
				})
			}
			e.Run(0)
			overlaps := 0
			for _, a := range pages[0] {
				for _, b := range pages[1] {
					if a.begin < b.end && b.begin < a.end {
						overlaps++
					}
				}
			}
			if overlaps == 0 {
				t.Fatal("the two processes' scans never overlapped")
			}
			for proc := range pages {
				for r, pg := range pages[proc] {
					if got := render(pg.recs); got != pg.snap {
						t.Fatalf("proc %d scan %d changed after it returned:\n got %s\nwant %s", proc, r, got, pg.snap)
					}
					got := make([]string, len(pg.recs))
					for i, rec := range pg.recs {
						got[i] = rec.Key
					}
					if want := globalPrefix(keys, pg.start, count); !slices.Equal(got, want) {
						t.Fatalf("proc %d scan %d from %q:\n got %v\nwant %v", proc, r, pg.start, got, want)
					}
				}
			}
		})
	}
}

func TestContractUpdateOverwrites(t *testing.T) {
	for name, deploy := range deployAll(t, 2) {
		t.Run(name, func(t *testing.T) {
			e, s := deploy()
			key := store.Key(5)
			newFields := store.MakeFields(999)
			e.Go("w", func(p *sim.Proc) {
				if err := s.Insert(p, key, store.MakeFields(5)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := s.Update(p, key, newFields); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				got, err := s.Read(p, key)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if string(got.Field(0)) != string(newFields[0]) {
					t.Errorf("after update got %q, want %q", got.Field(0), newFields[0])
				}
			})
			e.Run(0)
		})
	}
}

// TestContractCopiesOnIngest pins the copy-on-ingest half of the Store
// contract. Insert, Update and LoadNode are all fed from one key buffer and one
// FillFields buffer, overwritten after every call the way the YCSB
// runner's reuse overwrites them; Read and Scan must still return the
// bytes each record was written with. Cassandra at replication=3 covers
// the async-replica path, which applies mutations after the client has
// moved on to its next operation.
func TestContractCopiesOnIngest(t *testing.T) {
	deploys := deployAll(t, 3)
	deploys["cassandra-rf3"] = func() (*sim.Engine, store.Store) {
		e := sim.NewEngine(1)
		c := cluster.New(e, cluster.ClusterM(3).Scale(0.01))
		return e, cassandra.New(c, cassandra.Options{MemtableFlushBytes: 64 << 10, ReplicationFactor: 3})
	}
	const n = 300
	for name, deploy := range deploys {
		t.Run(name, func(t *testing.T) {
			e, s := deploy()
			var kb []byte
			var fbuf store.Fields
			key := func(id int64) string {
				kb = store.AppendKey(kb[:0], id)
				return unsafe.String(unsafe.SliceData(kb), len(kb))
			}
			fields := func(src int64) store.Fields {
				fbuf = store.FillFields(fbuf, src, store.FieldBytes)
				return fbuf
			}
			scribble := func() {
				for i := range kb {
					kb[i] = '#'
				}
				for _, f := range fbuf {
					for i := range f {
						f[i] = '#'
					}
				}
			}
			// src maps each record number to the record whose field
			// pattern it must hold.
			src := make([]int64, 2*n)
			for id := int64(0); id < n; id++ {
				k, f := key(id), fields(id)
				for _, i := range s.LoadNodes(nil, k) {
					s.LoadNode(i, k, f)
				}
				scribble()
				src[id] = id
			}
			e.Go("w", func(p *sim.Proc) {
				for id := int64(n); id < 2*n; id++ {
					if err := s.Insert(p, key(id), fields(id)); err != nil {
						t.Errorf("insert %d: %v", id, err)
						return
					}
					scribble()
					src[id] = id
				}
				for id := int64(0); id < 2*n; id += 3 {
					if err := s.Update(p, key(id), fields(id+10*n)); err != nil {
						t.Errorf("update %d: %v", id, err)
						return
					}
					scribble()
					src[id] = id + 10*n
				}
			})
			e.Run(0)
			scribble()

			byKey := map[string]int64{}
			for id := range src {
				byKey[store.Key(int64(id))] = int64(id)
			}
			check := func(op, k string, got store.FieldsView) {
				id, ok := byKey[k]
				if !ok {
					t.Errorf("%s returned unknown key %q (retained a caller key buffer?)", op, k)
					return
				}
				want := store.MakeFields(src[id])
				if got.Len() != len(want) {
					t.Errorf("%s %s: %d fields, want %d", op, k, got.Len(), len(want))
					return
				}
				for j := range want {
					if string(got.Field(j)) != string(want[j]) {
						t.Errorf("%s %s field %d = %q, want %q (retained a caller fields buffer?)",
							op, k, j, got.Field(j), want[j])
						return
					}
				}
			}
			e.Go("r", func(p *sim.Proc) {
				for id := range src {
					k := store.Key(int64(id))
					got, err := s.Read(p, k)
					if err != nil {
						t.Errorf("read %s: %v", k, err)
						return
					}
					check("read", k, got)
				}
				if s.Name() == "voldemort" {
					return // no scans (paper §5.4)
				}
				recs, err := s.Scan(p, "", len(src))
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				for _, r := range recs {
					check("scan", r.Key, r.Fields)
				}
				if len(recs) != len(src) {
					t.Errorf("scan returned %d rows, want %d", len(recs), len(src))
				}
			})
			e.Run(0)
		})
	}
}

func TestVoldemortScansUnsupported(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(2).Scale(0.01))
	s := voldemort.New(c)
	e.Go("r", func(p *sim.Proc) {
		if _, err := s.Scan(p, "a", 10); err != store.ErrScansUnsupported {
			t.Errorf("scan err = %v, want ErrScansUnsupported", err)
		}
	})
	e.Run(0)
}

func TestStoreNames(t *testing.T) {
	want := map[string]bool{"cassandra": true, "hbase": true, "voldemort": true,
		"redis": true, "voltdb": true, "mysql": true}
	for name, deploy := range deployAll(t, 1) {
		_, s := deploy()
		if s.Name() != name || !want[s.Name()] {
			t.Errorf("store name %q under key %q", s.Name(), name)
		}
	}
}

func TestKeysFixedWidthAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := int64(0); i < 10000; i++ {
		k := store.Key(i)
		if len(k) != store.KeyBytes {
			t.Fatalf("key %q has length %d, want %d", k, len(k), store.KeyBytes)
		}
		if seen[k] {
			t.Fatalf("duplicate key %q for record %d", k, i)
		}
		seen[k] = true
	}
}

func TestMakeFieldsShape(t *testing.T) {
	f := store.MakeFields(123)
	if len(f) != store.NumFields {
		t.Fatalf("fields = %d, want %d", len(f), store.NumFields)
	}
	for i, v := range f {
		if len(v) != store.FieldBytes {
			t.Fatalf("field %d has %d bytes, want %d", i, len(v), store.FieldBytes)
		}
	}
	if fmt.Sprintf("%s", f[0]) == fmt.Sprintf("%s", f[1]) {
		t.Fatal("fields should differ")
	}
}

// BenchmarkShardedScan pins the host cost and allocations of one
// dashboard-sized page (60 rows, apm's scan page) from voltdb at 2 nodes:
// a multi-partition scan over 2 hosts x 6 sites whose 12 key-sorted runs
// the client merges.
func BenchmarkShardedScan(b *testing.B) {
	const loaded, page = 6000, 60
	e := sim.NewEngine(1)
	s := voltdb.New(cluster.New(e, cluster.ClusterM(2).Scale(0.01)), voltdb.Options{})
	ycsb.Load(s, loaded)
	e.Go("scan", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if recs, err := s.Scan(p, store.Key(int64(i%loaded)), page); err != nil || len(recs) == 0 {
				b.Errorf("scan %d: %d rows, err %v", i, len(recs), err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
}
