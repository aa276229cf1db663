// Package dfs models the data path of a distributed filesystem in the HDFS
// mold: a file is a list of blocks, each stored by a DataNode on its local
// disks. HBase's region servers are colocated with DataNodes (as in the
// paper's deployment, where every slave node ran DataNode, TaskTracker and
// RegionServer), so flushes and most reads enjoy locality but still pay the
// DataNode protocol overhead; non-local reads cross the network. The
// NameNode's metadata path is not modeled: a caller builds its File values
// itself and only appends to and reads from them.
package dfs

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

const (
	blockBytes = 64 << 20 // HDFS block size
	// dataNodeOverhead is CPU time spent in the DataNode/DFSClient path per
	// block operation (checksumming, protocol, JVM copies).
	dataNodeOverhead = 150 * sim.Microsecond
)

// FS is a simulated HDFS instance over a cluster.
type FS struct {
	clust *cluster.Cluster
}

// File is a DFS file: an ordered list of blocks, each on one DataNode
// (replication 1, matching the paper's unreplicated setups).
type File struct {
	Name   string
	Size   int64
	blocks []blockLoc
}

type blockLoc struct {
	node  int
	bytes int64
}

// New returns a filesystem whose DataNodes are the cluster's nodes.
func New(c *cluster.Cluster) *FS {
	return &FS{clust: c}
}

// Append writes bytes to the file from writerNode. With replication 1 and a
// colocated DataNode the write lands on the local disk sequentially.
func (fs *FS) Append(p *sim.Proc, f *File, bytes int64, writerNode int) {
	node := fs.clust.Nodes[writerNode]
	node.Compute(p, dataNodeOverhead)
	node.DiskWrite(p, bytes, false)
	node.AddDiskUsage(bytes)
	// Extend the last block or start new ones.
	remaining := bytes
	for remaining > 0 {
		if n := len(f.blocks); n > 0 && f.blocks[n-1].node == writerNode && f.blocks[n-1].bytes < blockBytes {
			room := blockBytes - f.blocks[n-1].bytes
			if room > remaining {
				room = remaining
			}
			f.blocks[n-1].bytes += room
			remaining -= room
			continue
		}
		chunk := remaining
		if chunk > blockBytes {
			chunk = blockBytes
		}
		f.blocks = append(f.blocks, blockLoc{node: writerNode, bytes: chunk})
		remaining -= chunk
	}
	f.Size += bytes
}

// blockAt returns the block covering offset.
func (f *File) blockAt(offset int64) (blockLoc, error) {
	var pos int64
	for _, b := range f.blocks {
		if offset < pos+b.bytes {
			return b, nil
		}
		pos += b.bytes
	}
	return blockLoc{}, fmt.Errorf("dfs: offset %d beyond file %q size %d", offset, f.Name, f.Size)
}

// ReadAt reads length bytes at offset from readerNode, paying local or
// remote I/O depending on block placement. random selects seek accounting.
func (fs *FS) ReadAt(p *sim.Proc, f *File, offset, length int64, readerNode int, random bool) error {
	b, err := f.blockAt(offset)
	if err != nil {
		return err
	}
	reader := fs.clust.Nodes[readerNode]
	holder := fs.clust.Nodes[b.node]
	holder.Compute(p, dataNodeOverhead)
	holder.DiskRead(p, length, random)
	if holder != reader {
		holder.Send(p, reader, length)
	}
	return nil
}
