package stores_test

import (
	"testing"

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

// measureOp runs fn in a fresh process and returns elapsed virtual time.
func measureOp(e *sim.Engine, fn func(p *sim.Proc)) sim.Time {
	var elapsed sim.Time
	e.Go("op", func(p *sim.Proc) {
		start := p.Now()
		fn(p)
		elapsed = p.Now() - start
	})
	e.Run(0)
	return elapsed
}

func TestHBaseWriteCheaperThanRead(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(2).Scale(0.01))
	s := hbase.New(c, hbase.Options{})
	ycsb.Load(s, 1000)
	write := measureOp(e, func(p *sim.Proc) { s.Insert(p, store.Key(2000), store.MakeFields(2000)) })
	read := measureOp(e, func(p *sim.Proc) { s.Read(p, store.Key(1)) })
	if write*10 > read {
		t.Fatalf("HBase buffered write %v should be >10x cheaper than read %v (Fig 4 vs 5)", write, read)
	}
}

func TestHBaseAutoFlushMakesWritesExpensive(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1).Scale(0.01))
	buffered := hbase.New(c, hbase.Options{})
	auto := hbase.New(c, hbase.Options{AutoFlush: true})
	wBuf := measureOp(e, func(p *sim.Proc) { buffered.Insert(p, store.Key(1), store.MakeFields(1)) })
	wAuto := measureOp(e, func(p *sim.Proc) { auto.Insert(p, store.Key(1), store.MakeFields(1)) })
	if wAuto <= wBuf {
		t.Fatalf("autoflush write %v should exceed buffered write %v", wAuto, wBuf)
	}
}

func TestCassandraWriteWaitsForGroupCommit(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1).Scale(0.01))
	s := cassandra.New(c, cassandra.Options{CommitLogWindow: 18 * sim.Millisecond})
	w := measureOp(e, func(p *sim.Proc) { s.Insert(p, store.Key(1), store.MakeFields(1)) })
	if w < 15*sim.Millisecond {
		t.Fatalf("Cassandra write %v should include the ~18ms group-commit wait", w)
	}
}

func TestCassandraDiskOverheadPerRecord(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1).Scale(0.01))
	s := cassandra.New(c, cassandra.Options{MemtableFlushBytes: 4 << 10})
	const n = 10000
	ycsb.Load(s, n)
	perRecord := float64(s.DiskUsage()) / n
	// Paper Fig 17: 2.5 GB / 10M records = 250 bytes per record.
	if perRecord < 230 || perRecord > 270 {
		t.Fatalf("Cassandra disk/record = %.1f bytes, want ~250 (Fig 17)", perRecord)
	}
}

func TestHBaseDiskOverheadLargest(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1).Scale(0.01))
	hb := hbase.New(c, hbase.Options{MemstoreFlushBytes: 4 << 10})
	ca := cassandra.New(c, cassandra.Options{MemtableFlushBytes: 4 << 10})
	const n = 10000
	ycsb.Load(hb, n)
	ycsb.Load(ca, n)
	hbPer := float64(hb.DiskUsage()) / n
	if hbPer < 700 || hbPer > 800 {
		t.Fatalf("HBase disk/record = %.1f bytes, want ~750 (Fig 17: 7.5 GB/10M)", hbPer)
	}
	if hb.DiskUsage() <= ca.DiskUsage()*2 {
		t.Fatalf("HBase usage %d should dwarf Cassandra's %d (Fig 17)", hb.DiskUsage(), ca.DiskUsage())
	}
}

func TestMySQLBinlogDoublesDiskUsage(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(1).Scale(0.01))
	with := mysql.New(c, mysql.Options{BinLog: true})
	without := mysql.New(c, mysql.Options{BinLog: false})
	ycsb.Load(with, 20000)
	ycsb.Load(without, 20000)
	ratio := float64(with.DiskUsage()) / float64(without.DiskUsage())
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("binlog usage ratio = %.2f, want ~2 (paper §5.7)", ratio)
	}
}

func TestMySQLScanCheapOnOneNodeCostlyOnMany(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 180k records; covered by the full run")
	}
	mk := func(nodes int) (*sim.Engine, *mysql.Store) {
		e := sim.NewEngine(1)
		c := cluster.New(e, cluster.ClusterM(nodes).Scale(0.01))
		s := mysql.New(c, mysql.Options{BinLog: true})
		ycsb.Load(s, int64(nodes)*20000)
		return e, s
	}
	e1, s1 := mk(1)
	one := measureOp(e1, func(p *sim.Proc) { s1.Scan(p, store.Key(10), 50) })
	e8, s8 := mk(8)
	eight := measureOp(e8, func(p *sim.Proc) { s8.Scan(p, store.Key(10), 50) })
	if eight < 4*one {
		t.Fatalf("8-shard scan %v should cost several times a 1-node scan %v (Fig 12/13)", eight, one)
	}
}

func TestVoltDBSingleNodeFastMultiNodeSlow(t *testing.T) {
	mk := func(nodes int) (*sim.Engine, *voltdb.Store) {
		e := sim.NewEngine(1)
		c := cluster.New(e, cluster.ClusterM(nodes).Scale(0.01))
		return e, voltdb.New(c, voltdb.Options{})
	}
	e1, s1 := mk(1)
	ycsb.Load(s1, 2) // keys 0 and 1
	one := measureOp(e1, func(p *sim.Proc) { s1.Read(p, store.Key(1)) })
	e8, s8 := mk(8)
	ycsb.Load(s8, 2) // keys 0 and 1
	eight := measureOp(e8, func(p *sim.Proc) { s8.Read(p, store.Key(1)) })
	if eight <= one {
		t.Fatalf("8-node VoltDB read %v should exceed 1-node %v (global ordering)", eight, one)
	}
}

func TestVoltDBAsyncCheaperOrdering(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(8).Scale(0.01))
	syncS := voltdb.New(c, voltdb.Options{})
	asyncS := voltdb.New(c, voltdb.Options{Async: true})
	ycsb.Load(syncS, 2)  // keys 0 and 1
	ycsb.Load(asyncS, 2) // keys 0 and 1
	// Run many concurrent reads; async should finish sooner in aggregate.
	run := func(s store.Store) sim.Time {
		eng := sim.NewEngine(2)
		cl := cluster.New(eng, cluster.ClusterM(8).Scale(0.01))
		var st store.Store
		if s == syncS {
			st = voltdb.New(cl, voltdb.Options{})
		} else {
			st = voltdb.New(cl, voltdb.Options{Async: true})
		}
		ycsb.Load(st, 100)
		for i := 0; i < 64; i++ {
			eng.Go("c", func(p *sim.Proc) {
				for j := int64(0); j < 20; j++ {
					st.Read(p, store.Key(j%100))
				}
			})
		}
		return eng.Run(0)
	}
	if async, syncT := run(asyncS), run(syncS); async >= syncT {
		t.Fatalf("async makespan %v should beat sync %v on 8 nodes", async, syncT)
	}
}

func TestRedisImbalanceAndOOM(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 180k records; covered by the full run")
	}
	e := sim.NewEngine(1)
	// Tiny RAM so the hot shard overflows quickly at 12 nodes.
	spec := cluster.ClusterM(12).Scale(0.0015)
	c := cluster.New(e, spec)
	s := redis.New(c, redis.Options{})
	perNode := int64(float64(10_000_000) * 0.0015)
	ycsb.Load(s, perNode*12)
	if lf := s.HottestLoadFactor(); lf < 1.1 {
		t.Fatalf("hottest load factor = %.2f, want > 1.1 (Jedis imbalance)", lf)
	}
	if s.SwappingNodes() == 0 {
		t.Fatal("no Redis node exceeded RAM at 12 nodes (paper: one node consistently ran out of memory)")
	}
	if s.SwappingNodes() > 4 {
		t.Fatalf("%d nodes swapping; expected only the hottest shard(s)", s.SwappingNodes())
	}
}

func TestRedisBalancedShardingEvens(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(12).Scale(0.01))
	s := redis.New(c, redis.Options{Balanced: true})
	ycsb.Load(s, 120000)
	if lf := s.HottestLoadFactor(); lf > 1.05 {
		t.Fatalf("balanced sharding load factor = %.2f, want <= 1.05", lf)
	}
}

func TestVoldemortLatencyFlat(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(4).Scale(0.01))
	s := voldemort.New(c)
	ycsb.Load(s, 50000)
	read := measureOp(e, func(p *sim.Proc) { s.Read(p, store.Key(7)) })
	write := measureOp(e, func(p *sim.Proc) { s.Insert(p, store.Key(60000), store.MakeFields(60000)) })
	// Paper: both ~230-260µs and similar to each other.
	if read > sim.Millisecond || write > sim.Millisecond {
		t.Fatalf("voldemort read %v / write %v, want sub-ms", read, write)
	}
	ratio := float64(write) / float64(read)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("voldemort write/read ratio %.2f, want ~1 (paper: similar latencies)", ratio)
	}
}

func TestCassandraScanCostsMultipleReads(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(4).Scale(0.01))
	s := cassandra.New(c, cassandra.Options{MemtableFlushBytes: 64 << 10})
	ycsb.Load(s, 40000)
	read := measureOp(e, func(p *sim.Proc) { s.Read(p, store.Key(3)) })
	scan := measureOp(e, func(p *sim.Proc) { s.Scan(p, store.Key(3), 50) })
	if scan < 2*read {
		t.Fatalf("Cassandra scan %v should cost several reads %v (Fig 13: ~4x)", scan, read)
	}
}
