package gss

import (
	"io"
	"sync"

	"repro/internal/stream"
)

// Concurrent wraps a GSS with a read-write mutex so one ingester and
// many queriers can share it. Insertion stays O(1); queries take the
// read lock, so they run in parallel with each other but exclude
// inserts — the usual summary-structure deployment (hot path writes,
// periodic analytical reads).
type Concurrent struct {
	mu sync.RWMutex
	g  *GSS

	// Per-call probe scratch for readers. The sketch's own buffers
	// belong to the writer; readers running in parallel under RLock
	// each borrow a queryScratch here instead of copying the whole
	// GSS struct per query. The pool is replaced together with g on
	// Restore (scratch sizes follow the config), so both are read
	// under the same lock.
	scratch *sync.Pool
}

func newScratchPool(cfg Config) *sync.Pool {
	return &sync.Pool{New: func() interface{} {
		sc := newQueryScratch(cfg)
		return &sc
	}}
}

// NewConcurrent builds a thread-safe GSS.
func NewConcurrent(cfg Config) (*Concurrent, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Concurrent{g: g, scratch: newScratchPool(g.cfg)}, nil
}

// Insert ingests one stream item.
func (c *Concurrent) Insert(it stream.Item) {
	c.mu.Lock()
	c.g.Insert(it)
	c.mu.Unlock()
}

// InsertBatch ingests a batch under one lock acquisition.
func (c *Concurrent) InsertBatch(items []stream.Item) {
	c.mu.Lock()
	c.g.InsertBatch(items)
	c.mu.Unlock()
}

// InsertHashedBatch ingests a pre-hashed batch under one lock
// acquisition.
func (c *Concurrent) InsertHashedBatch(items []stream.HashedItem) {
	c.mu.Lock()
	c.g.InsertHashedBatch(items)
	c.mu.Unlock()
}

// InsertEdge adds w to edge (src,dst).
func (c *Concurrent) InsertEdge(src, dst string, w int64) {
	c.mu.Lock()
	c.g.InsertEdge(src, dst, w)
	c.mu.Unlock()
}

// EdgeWeight is the edge query primitive.
func (c *Concurrent) EdgeWeight(src, dst string) (int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	return c.g.edgeWeightWith(c.g.nh.Hash(src), c.g.nh.Hash(dst), sc)
}

// Successors is the 1-hop successor primitive.
func (c *Concurrent) Successors(v string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	return c.g.successorsWith(v, sc)
}

// Precursors is the 1-hop precursor primitive.
func (c *Concurrent) Precursors(v string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	return c.g.precursorsWith(v, sc)
}

// The hash-native query plane, under the read lock. Each call borrows
// pooled probe scratch like the string primitives, so parallel readers
// running BFS frontiers stay allocation-free on the sketch side.

// NodeHash maps an identifier into the sketch's compressed node space.
// The mapping is a pure function of the configuration, but the sketch
// pointer itself can be swapped by Restore, so it still takes the lock.
func (c *Concurrent) NodeHash(v string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.NodeHash(v)
}

// EdgeWeightHash is the edge primitive over pre-hashed endpoints.
func (c *Concurrent) EdgeWeightHash(hs, hd uint64) (int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	return c.g.edgeWeightWith(hs, hd, sc)
}

// AppendSuccessorHashes appends the sketch successors of hv to dst.
func (c *Concurrent) AppendSuccessorHashes(hv uint64, dst []uint64) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	return c.g.appendSuccessorHashesWith(hv, dst, sc)
}

// AppendPrecursorHashes appends the sketch precursors of hv to dst.
func (c *Concurrent) AppendPrecursorHashes(hv uint64, dst []uint64) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	return c.g.appendPrecursorHashesWith(hv, dst, sc)
}

// AppendNodeHashes appends every registered node hash to dst.
func (c *Concurrent) AppendNodeHashes(dst []uint64) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.AppendNodeHashes(dst)
}

// AppendHashIDs appends the identifiers registered under hv to dst.
func (c *Concurrent) AppendHashIDs(hv uint64, dst []string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.AppendHashIDs(hv, dst)
}

// SupportsHashQueries reports whether the wrapped sketch backs the
// hash-native query plane.
func (c *Concurrent) SupportsHashQueries() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.SupportsHashQueries()
}

// Nodes lists registered node identifiers.
func (c *Concurrent) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.Nodes()
}

// Stats snapshots sketch statistics.
func (c *Concurrent) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.Stats()
}

// HeavyEdges lists sketch edges at or above minWeight. The matrix scan
// uses no probe scratch, so the read lock alone suffices.
func (c *Concurrent) HeavyEdges(minWeight int64) []HeavyEdge {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.HeavyEdges(minWeight)
}

// Snapshot serializes the sketch while holding the read lock.
func (c *Concurrent) Snapshot(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, err := c.g.WriteTo(w)
	return err
}

// Restore replaces the sketch with the snapshot read from r. The old
// sketch stays in place on error.
func (c *Concurrent) Restore(r io.Reader) error {
	g, err := ReadSketch(r)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.g = g
	c.scratch = newScratchPool(g.cfg)
	c.mu.Unlock()
	return nil
}
