// Package dfs models a distributed filesystem in the HDFS mold: a NameNode
// holding file-to-block metadata and DataNodes storing blocks on their local
// disks. HBase's region servers are colocated with DataNodes (as in the
// paper's deployment, where every slave node ran DataNode, TaskTracker and
// RegionServer), so flushes and most reads enjoy locality but still pay the
// DataNode protocol overhead; non-local reads cross the network.
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
	nameNode         = 0 // node index hosting the NameNode
)

// FS is a simulated HDFS instance over a cluster.
type FS struct {
	clust *cluster.Cluster
	files map[string]*File
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

// New creates an empty filesystem.
func New(c *cluster.Cluster) *FS {
	return &FS{clust: c, files: make(map[string]*File)}
}

// nameNodeRPC pays for a metadata round trip from the caller's node to the
// NameNode (free if colocated).
func (fs *FS) nameNodeRPC(p *sim.Proc, from int) {
	nn := fs.clust.Nodes[nameNode]
	src := fs.clust.Nodes[from]
	if src == nn {
		src.Compute(p, 20*sim.Microsecond)
		return
	}
	src.RPC(p, nn, 256, 512, func() {
		nn.Compute(p, 20*sim.Microsecond)
	})
}

// Create registers a new file; the caller's node becomes the writer.
func (fs *FS) Create(p *sim.Proc, name string, writerNode int) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q exists", name)
	}
	fs.nameNodeRPC(p, writerNode)
	f := &File{Name: name}
	fs.files[name] = f
	return f, nil
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

// AppendDirect accounts an append without simulation timing (bulk load).
func (fs *FS) AppendDirect(f *File, bytes int64, writerNode int) {
	fs.clust.Nodes[writerNode].AddDiskUsage(bytes)
	f.blocks = append(f.blocks, blockLoc{node: writerNode, bytes: bytes})
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

// Delete removes a file, reclaiming its space.
func (fs *FS) Delete(p *sim.Proc, name string, callerNode int) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("dfs: no such file %q", name)
	}
	fs.nameNodeRPC(p, callerNode)
	for _, b := range f.blocks {
		fs.clust.Nodes[b.node].AddDiskUsage(-b.bytes)
	}
	delete(fs.files, name)
	return nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// Files returns the number of live files.
func (fs *FS) Files() int { return len(fs.files) }

// Blocks returns the number of blocks in f.
func (f *File) Blocks() int { return len(f.blocks) }
