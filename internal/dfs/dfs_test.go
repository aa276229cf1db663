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

func TestCreateAppendRead(t *testing.T) {
	e, _, fs := setup(2)
	e.Go("w", func(p *sim.Proc) {
		f, err := fs.Create(p, "/hbase/hfile1", 0)
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		fs.Append(p, f, 500<<10, 0)
		if f.Size != 500<<10 {
			t.Errorf("size = %d, want 500KiB", f.Size)
		}
		if err := fs.ReadAt(p, f, 1000, 64<<10, 0, true); err != nil {
			t.Errorf("ReadAt: %v", err)
		}
	})
	e.Run(0)
	if fs.Files() != 1 {
		t.Fatalf("files = %d, want 1", fs.Files())
	}
}

func TestDuplicateCreateFails(t *testing.T) {
	e, _, fs := setup(1)
	e.Go("w", func(p *sim.Proc) {
		if _, err := fs.Create(p, "/f", 0); err != nil {
			t.Errorf("first create: %v", err)
		}
		if _, err := fs.Create(p, "/f", 0); err == nil {
			t.Error("duplicate create succeeded")
		}
	})
	e.Run(0)
}

func TestAppendSplitsIntoBlocks(t *testing.T) {
	e, _, fs := setup(1)
	e.Go("w", func(p *sim.Proc) {
		f, _ := fs.Create(p, "/big", 0)
		fs.Append(p, f, 3*blockBytes+512, 0) // three full 64 MiB blocks plus 512 bytes -> 4 blocks
		if f.Blocks() != 4 {
			t.Errorf("blocks = %d, want 4", f.Blocks())
		}
	})
	e.Run(0)
}

func TestLocalReadCheaperThanRemote(t *testing.T) {
	e, c, fs := setup(2)
	var local, remote sim.Time
	e.Go("w", func(p *sim.Proc) {
		f, _ := fs.Create(p, "/f", 0) // blocks on node 0
		fs.Append(p, f, 1<<20, 0)
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
	_ = c
}

func TestReadPastEOF(t *testing.T) {
	e, _, fs := setup(1)
	e.Go("w", func(p *sim.Proc) {
		f, _ := fs.Create(p, "/f", 0)
		fs.Append(p, f, 100, 0)
		if err := fs.ReadAt(p, f, 200, 10, 0, true); err == nil {
			t.Error("read past EOF succeeded")
		}
	})
	e.Run(0)
}

func TestDeleteReclaimsSpace(t *testing.T) {
	e, c, fs := setup(1)
	e.Go("w", func(p *sim.Proc) {
		f, _ := fs.Create(p, "/f", 0)
		fs.Append(p, f, 1<<20, 0)
		if c.Nodes[0].DiskUsed() != 1<<20 {
			t.Errorf("disk used = %d, want 1MiB", c.Nodes[0].DiskUsed())
		}
		if err := fs.Delete(p, "/f", 0); err != nil {
			t.Errorf("Delete: %v", err)
		}
		if c.Nodes[0].DiskUsed() != 0 {
			t.Errorf("disk used after delete = %d, want 0", c.Nodes[0].DiskUsed())
		}
	})
	e.Run(0)
	if fs.Files() != 0 {
		t.Fatal("file still present after delete")
	}
	if _, ok := fs.Open("/f"); ok {
		t.Fatal("Open found deleted file")
	}
}

func TestAppendDirectNoTiming(t *testing.T) {
	e, c, fs := setup(1)
	var f *File
	e.Go("w", func(p *sim.Proc) { f, _ = fs.Create(p, "/f", 0) })
	e.Run(0)
	before := e.Now()
	fs.AppendDirect(f, 1<<20, 0)
	if e.Now() != before {
		t.Fatal("AppendDirect advanced time")
	}
	if c.Nodes[0].DiskUsed() != 1<<20 {
		t.Fatal("AppendDirect did not account disk usage")
	}
}
