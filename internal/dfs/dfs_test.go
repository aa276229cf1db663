package dfs

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func setup(nodes int) (*sim.Engine, *cluster.Cluster, *FS) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.ClusterM(nodes))
	return e, c, New(c)
}

// TestCreateAppendRead builds a file the way hbase does, appends to it and
// reads it back, accounting the bytes as the writer's disk usage.
func TestCreateAppendRead(t *testing.T) {
	e, c, fs := setup(2)
	f := &File{Name: "/hbase/hfile1"}
	e.Go("w", func(p *sim.Proc) {
		fs.Append(p, f, 500<<10, 0)
		if f.Size != 500<<10 {
			t.Errorf("size = %d, want 500KiB", f.Size)
		}
		if err := fs.ReadAt(p, f, 1000, 64<<10, 0, true); err != nil {
			t.Errorf("ReadAt: %v", err)
		}
	})
	e.Run(0)
	if c.Nodes[0].DiskUsed() != 500<<10 {
		t.Fatalf("disk used = %d, want 500KiB", c.Nodes[0].DiskUsed())
	}
}

func TestAppendSplitsIntoBlocks(t *testing.T) {
	e, _, fs := setup(1)
	f := &File{Name: "/big"}
	e.Go("w", func(p *sim.Proc) {
		fs.Append(p, f, 3*blockBytes+512, 0) // three full 64 MiB blocks plus 512 bytes -> 4 blocks
		if len(f.blocks) != 4 {
			t.Errorf("blocks = %d, want 4", len(f.blocks))
		}
	})
	e.Run(0)
}

func TestLocalReadCheaperThanRemote(t *testing.T) {
	e, _, fs := setup(2)
	f := &File{Name: "/f"}
	var local, remote sim.Time
	e.Go("w", func(p *sim.Proc) {
		fs.Append(p, f, 1<<20, 0) // blocks on node 0
		start := p.Now()
		fs.ReadAt(p, f, 0, 512<<10, 0, false) // local
		local = p.Now() - start
		start = p.Now()
		fs.ReadAt(p, f, 0, 512<<10, 1, false) // remote from node 1
		remote = p.Now() - start
	})
	e.Run(0)
	if remote <= local {
		t.Fatalf("remote read %v should exceed local %v", remote, local)
	}
}

func TestReadPastEOF(t *testing.T) {
	e, _, fs := setup(1)
	f := &File{Name: "/f"}
	e.Go("w", func(p *sim.Proc) {
		fs.Append(p, f, 100, 0)
		if err := fs.ReadAt(p, f, 200, 10, 0, true); err == nil {
			t.Error("read past EOF succeeded")
		}
	})
	e.Run(0)
}
