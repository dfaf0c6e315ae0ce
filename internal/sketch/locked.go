package sketch

import (
	"bytes"
	"io"
	"sync"

	"repro/internal/gss"
	"repro/internal/stream"
)

// Locked adapts any Sketch to concurrent use with a single global
// mutex: every operation — read or write — is fully serialized. New
// wraps the windowed backend in it, whose generation rotation makes
// every insert a potential structural change.
type Locked struct {
	mu sync.Mutex
	sk Sketch
}

// NewLocked wraps sk with one global mutex. sk must not be used
// directly afterwards.
func NewLocked(sk Sketch) *Locked { return &Locked{sk: sk} }

// Insert ingests one stream item.
func (l *Locked) Insert(it stream.Item) {
	l.mu.Lock()
	l.sk.Insert(it)
	l.mu.Unlock()
}

// InsertBatch ingests a batch under one lock acquisition.
func (l *Locked) InsertBatch(items []stream.Item) {
	l.mu.Lock()
	l.sk.InsertBatch(items)
	l.mu.Unlock()
}

// InsertHashedBatch ingests a pre-hashed batch under one lock
// acquisition.
func (l *Locked) InsertHashedBatch(items []stream.HashedItem) {
	l.mu.Lock()
	l.sk.InsertHashedBatch(items)
	l.mu.Unlock()
}

// EdgeWeight is the edge query primitive.
func (l *Locked) EdgeWeight(src, dst string) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.EdgeWeight(src, dst)
}

// Successors is the 1-hop successor query primitive.
func (l *Locked) Successors(v string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.Successors(v)
}

// Precursors is the 1-hop precursor query primitive.
func (l *Locked) Precursors(v string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.Precursors(v)
}

// The hash-native query plane, forwarded under the mutex.

// NodeHash maps an identifier into the wrapped sketch's hash space.
func (l *Locked) NodeHash(v string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.NodeHash(v)
}

// EdgeWeightHash is the edge primitive over pre-hashed endpoints.
func (l *Locked) EdgeWeightHash(hs, hd uint64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.EdgeWeightHash(hs, hd)
}

// AppendSuccessorHashes appends the sketch successors of hv to dst.
func (l *Locked) AppendSuccessorHashes(hv uint64, dst []uint64) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.AppendSuccessorHashes(hv, dst)
}

// AppendPrecursorHashes appends the sketch precursors of hv to dst.
func (l *Locked) AppendPrecursorHashes(hv uint64, dst []uint64) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.AppendPrecursorHashes(hv, dst)
}

// AppendNodeHashes appends every registered node hash to dst.
func (l *Locked) AppendNodeHashes(dst []uint64) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.AppendNodeHashes(dst)
}

// AppendHashIDs appends the identifiers registered under hv to dst.
func (l *Locked) AppendHashIDs(hv uint64, dst []string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.AppendHashIDs(hv, dst)
}

// SupportsHashQueries reports whether the wrapped sketch backs the
// hash plane.
func (l *Locked) SupportsHashQueries() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.SupportsHashQueries()
}

// Nodes enumerates registered node identifiers.
func (l *Locked) Nodes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.Nodes()
}

// HeavyEdges lists sketch edges with weight >= minWeight.
func (l *Locked) HeavyEdges(minWeight int64) []gss.HeavyEdge {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.HeavyEdges(minWeight)
}

// Stats snapshots sketch statistics.
func (l *Locked) Stats() gss.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.Stats()
}

// Snapshot serializes the wrapped sketch.
func (l *Locked) Snapshot(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.Snapshot(w)
}

// Restore replaces the wrapped sketch's state from a snapshot. The
// body is buffered before the lock is taken so a slow upload cannot
// stall every other operation behind the global mutex.
func (l *Locked) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.Restore(bytes.NewReader(data))
}
