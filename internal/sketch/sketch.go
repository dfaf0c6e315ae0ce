// Package sketch defines the common deployment surface of a graph
// stream summary: ingestion on both planes (plain items and items
// carrying their endpoint hashes), the three query primitives of
// Definition 4 on strings and on node hashes, statistics,
// snapshot/restore for fail-over, and partition export/drop for live
// migration. Every backend implements all of it, so callers never
// probe for a capability. The HTTP server, the benchmark harness, and
// the examples program against Sketch, so swapping the synchronization
// strategy — a read-write lock, hash-partitioned shards, or a sliding
// window behind one mutex — is a flag, not a rewrite.
//
// Every backend inserts in arrival order, so its state is a pure
// function of the item sequence: the two ingest planes, any batch
// boundaries and log replay all produce byte-identical snapshots.
package sketch

import (
	"fmt"
	"io"

	"repro/internal/gss"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/window"
)

// Sketch is the full deployment interface. It is a superset of
// query.Summary and query.HashSummary, so any Sketch also serves the
// compound query algorithms on the hash-native fast path.
type Sketch interface {
	// Insert ingests one stream item.
	Insert(it stream.Item)
	// InsertBatch ingests a slice of items; synchronized backends
	// amortize lock acquisitions over the batch.
	InsertBatch(items []stream.Item)
	// InsertHashedBatch ingests a batch whose items already carry
	// their endpoint hashes (the binary ingest plane); the identifier
	// strings are only registered, never re-hashed. It leaves the same
	// state InsertBatch of the plain items would.
	InsertHashedBatch(items []stream.HashedItem)
	// EdgeWeight is the edge query primitive.
	EdgeWeight(src, dst string) (int64, bool)
	// Successors is the 1-hop successor query primitive.
	Successors(v string) []string
	// Precursors is the 1-hop precursor query primitive.
	Precursors(v string) []string
	// Nodes enumerates registered original node identifiers.
	Nodes() []string
	// HeavyEdges lists sketch edges with weight >= minWeight.
	HeavyEdges(minWeight int64) []gss.HeavyEdge
	// Stats snapshots sketch statistics.
	Stats() gss.Stats
	// Snapshot serializes the sketch state to w.
	Snapshot(w io.Writer) error
	// Restore replaces the sketch state from a snapshot; the state is
	// unchanged on error.
	Restore(r io.Reader) error

	query.HashSummary
	PartitionMigrator
}

// The backends and the wrappers satisfy Sketch.
var (
	_ Sketch = (*gss.GSS)(nil)
	_ Sketch = (*gss.Concurrent)(nil)
	_ Sketch = (*gss.Sharded)(nil)
	_ Sketch = (*window.Sliding)(nil)
	_ Sketch = (*Locked)(nil)
	_ Sketch = (*Hot)(nil)
)

// InsertHashedBatch ingests a pre-hashed batch into sk.
func InsertHashedBatch(sk Sketch, items []stream.HashedItem) { sk.InsertHashedBatch(items) }

// Backend names accepted by New.
const (
	BackendConcurrent = "concurrent" // RWMutex: parallel reads, exclusive writes
	BackendSharded    = "sharded"    // per-shard mutexes, parallel ingestion
	BackendWindowed   = "windowed"   // sliding window of generation sketches, bounded memory
)

// Backends lists the accepted backend names.
func Backends() []string {
	return []string{BackendConcurrent, BackendSharded, BackendWindowed}
}

// Windowed backend defaults: one hour of second-resolution timestamps
// in four 15-minute generations.
const (
	DefaultWindowSpan        = 3600
	DefaultWindowGenerations = 4
)

// Options carries the backend-specific construction parameters beyond
// the per-sketch gss.Config. Fields a backend does not consult are
// ignored.
type Options struct {
	// Shards is the shard count for the sharded backend
	// (values < 1 mean 1).
	Shards int
	// WindowSpan is the windowed backend's window length in
	// stream-time units (0 means DefaultWindowSpan).
	WindowSpan int64
	// WindowGenerations is the windowed backend's rotation granularity
	// (0 means DefaultWindowGenerations).
	WindowGenerations int
}

// New builds a thread-safe Sketch for the named backend.
func New(backend string, cfg gss.Config, opt Options) (Sketch, error) {
	switch backend {
	case BackendConcurrent:
		return gss.NewConcurrent(cfg)
	case BackendSharded:
		return gss.NewSharded(cfg, opt.Shards)
	case BackendWindowed:
		span := opt.WindowSpan
		if span == 0 {
			span = DefaultWindowSpan
		}
		gens := opt.WindowGenerations
		if gens == 0 {
			gens = DefaultWindowGenerations
		}
		// cfg.Width is the total matrix budget, like on the sharded
		// backend: each of the gens generation sketches gets
		// width/sqrt(gens), so their combined memory matches one
		// unbounded sketch of cfg. An invalid width passes through
		// unscaled for window.New to reject.
		scaled := cfg
		if cfg.Width > 0 && gens > 0 {
			scaled.Width = gss.ScaleWidth(cfg.Width, gens)
		}
		w, err := window.New(window.Config{Sketch: scaled, Span: span, Generations: gens})
		if err != nil {
			return nil, err
		}
		// Generation rotation makes every insert a potential structural
		// change, so the windowed summary gets the global-mutex adapter
		// rather than a reader-writer split.
		return NewLocked(w), nil
	default:
		return nil, fmt.Errorf("sketch: unknown backend %q (want %s, %s or %s)",
			backend, BackendConcurrent, BackendSharded, BackendWindowed)
	}
}
