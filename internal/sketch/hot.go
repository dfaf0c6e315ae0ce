package sketch

import (
	"io"
	"sync/atomic"

	"repro/internal/gss"
	"repro/internal/stream"
)

// Hot is an atomically swappable Sketch: every method runs against the
// current sketch, and Swap replaces it in one pointer store. It is the
// read-replica seam — a follower restores a fetched snapshot into a
// fresh backend off to the side (no locks held, readers untouched) and
// then swaps it in, so even a multi-second restore never blocks the
// read path. The wrapped sketches must themselves be safe for
// concurrent use; Hot adds no synchronization of its own.
//
// An operation that was already dispatched to the old sketch finishes
// against the old sketch — the swap is atomic per call, not a barrier.
// Callers that chain several primitives and must not see the sketch
// change mid-chain (the server's compound-query handlers) hold their
// own lock around the chain, as they already do for /restore.
type Hot struct {
	cur atomic.Pointer[Sketch]
}

// NewHot wraps sk, which becomes the initial current sketch.
func NewHot(sk Sketch) *Hot {
	h := &Hot{}
	h.Swap(sk)
	return h
}

// Swap atomically replaces the current sketch.
func (h *Hot) Swap(sk Sketch) { h.cur.Store(&sk) }

// Current returns the sketch operations currently dispatch to.
func (h *Hot) Current() Sketch { return *h.cur.Load() }

// Insert ingests one stream item.
func (h *Hot) Insert(it stream.Item) { h.Current().Insert(it) }

// InsertBatch ingests a slice of items.
func (h *Hot) InsertBatch(items []stream.Item) { h.Current().InsertBatch(items) }

// InsertHashedBatch ingests a pre-hashed batch.
func (h *Hot) InsertHashedBatch(items []stream.HashedItem) { h.Current().InsertHashedBatch(items) }

// EdgeWeight is the edge query primitive.
func (h *Hot) EdgeWeight(src, dst string) (int64, bool) { return h.Current().EdgeWeight(src, dst) }

// Successors is the 1-hop successor query primitive.
func (h *Hot) Successors(v string) []string { return h.Current().Successors(v) }

// Precursors is the 1-hop precursor query primitive.
func (h *Hot) Precursors(v string) []string { return h.Current().Precursors(v) }

// Nodes enumerates registered original node identifiers.
func (h *Hot) Nodes() []string { return h.Current().Nodes() }

// HeavyEdges lists sketch edges with weight >= minWeight.
func (h *Hot) HeavyEdges(minWeight int64) []gss.HeavyEdge { return h.Current().HeavyEdges(minWeight) }

// Stats snapshots sketch statistics.
func (h *Hot) Stats() gss.Stats { return h.Current().Stats() }

// Snapshot serializes the current sketch.
func (h *Hot) Snapshot(w io.Writer) error { return h.Current().Snapshot(w) }

// Restore replaces the current sketch's state in place (the backend's
// own Restore keeps the swap atomic under its locks). To restore
// without blocking readers, build a fresh backend, Restore into that,
// and Swap it in.
func (h *Hot) Restore(r io.Reader) error { return h.Current().Restore(r) }

// NodeHash maps an identifier into the current sketch's hash space.
func (h *Hot) NodeHash(v string) uint64 { return h.Current().NodeHash(v) }

// EdgeWeightHash is the edge primitive over pre-hashed endpoints.
func (h *Hot) EdgeWeightHash(hs, hd uint64) (int64, bool) { return h.Current().EdgeWeightHash(hs, hd) }

// AppendSuccessorHashes appends the sketch successors of hv to dst.
func (h *Hot) AppendSuccessorHashes(hv uint64, dst []uint64) []uint64 {
	return h.Current().AppendSuccessorHashes(hv, dst)
}

// AppendPrecursorHashes appends the sketch precursors of hv to dst.
func (h *Hot) AppendPrecursorHashes(hv uint64, dst []uint64) []uint64 {
	return h.Current().AppendPrecursorHashes(hv, dst)
}

// AppendNodeHashes appends every registered node hash to dst.
func (h *Hot) AppendNodeHashes(dst []uint64) []uint64 { return h.Current().AppendNodeHashes(dst) }

// AppendHashIDs appends the identifiers registered under hv to dst.
func (h *Hot) AppendHashIDs(hv uint64, dst []string) []string {
	return h.Current().AppendHashIDs(hv, dst)
}

// SupportsHashQueries reports whether the current sketch backs the
// hash plane.
func (h *Hot) SupportsHashQueries() bool { return h.Current().SupportsHashQueries() }
