package gss

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"repro/internal/hashing"
	"repro/internal/stream"
)

// Sharded partitions a GSS into independently locked shards keyed by
// the edge's endpoint pair, so multiple ingestion goroutines proceed in
// parallel as long as they touch different shards — the scale-out
// deployment the paper's distributed-graph-system references (§I)
// anticipate. Edge queries route to one shard; set queries union all
// shards (a node's edges spread across shards with its partners).
type Sharded struct {
	shards []shard
	seed   uint64

	// gate serializes Restore against everything else: normal
	// operations share it (RLock — no serialization among them, the
	// per-shard mutexes still carry the real synchronization), while
	// Restore takes it exclusively so no query or insert can observe
	// a half-swapped mix of old and new shards.
	gate sync.RWMutex
}

type shard struct {
	mu sync.Mutex
	g  *GSS
}

// NewSharded builds n shards, each a GSS with cfg scaled so the total
// matrix memory is comparable to one unsharded GSS of cfg (the width is
// divided by sqrt(n)).
func NewSharded(cfg Config, n int) (*Sharded, error) {
	// Validate the caller's config before width scaling, so an invalid
	// width is an error rather than silently floored to 1 by the
	// sqrt(n) division.
	if _, err := cfg.normalized(); err != nil {
		return nil, err
	}
	if n < 1 {
		n = 1
	}
	scaled := cfg
	scaled.Width = ScaleWidth(cfg.Width, n)
	s := &Sharded{shards: make([]shard, n), seed: 0x5eed}
	for i := range s.shards {
		g, err := New(scaled)
		if err != nil {
			return nil, err
		}
		s.shards[i].g = g
	}
	return s, nil
}

// ScaleWidth divides width by sqrt(n), flooring at 1: n partition
// sketches of the scaled width have the combined matrix memory of one
// sketch of the original width. Both the sharded and the windowed
// backend use it so a -width flag means the same total budget on every
// backend.
func ScaleWidth(width, n int) int {
	lo, hi := 1, width
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid*mid*n <= width*width {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// shardIndex routes an edge by its endpoint pair. It is defined in
// terms of shardIndexHashed so the string and carried-hash planes
// cannot drift: HashSeeded(v, seed) == Mix64(Hash64(v) ^ Mix64(seed)),
// and HashedItem carries exactly Hash64(v). The function (and with it
// snapshot compatibility — restore routing is keyed by shard count
// plus this function) is unchanged from the pre-hashed-plane layout.
func (s *Sharded) shardIndex(src, dst string) int {
	return s.shardIndexHashed(hashing.Hash64(src), hashing.Hash64(dst))
}

// shardIndexHashed is shardIndex over carried full-width hashes — no
// identifier re-hash.
func (s *Sharded) shardIndexHashed(h64s, h64d uint64) int {
	h := hashing.Mix64(h64s^hashing.Mix64(s.seed)) ^ hashing.Mix64(h64d^hashing.Mix64(s.seed+1))
	return int(h % uint64(len(s.shards)))
}

// Insert ingests one item; safe for concurrent use. The full item is
// routed to the owning shard — Time and Label must survive this layer
// for wrappers that depend on them.
func (s *Sharded) Insert(it stream.Item) {
	s.InsertHashedBatch([]stream.HashedItem{stream.HashItem(it)})
}

// InsertBatch ingests a batch of items; safe for concurrent use. Each
// identifier is hashed once and the batch takes the hashed path, so
// both ingest planes share one shard grouping.
func (s *Sharded) InsertBatch(items []stream.Item) {
	s.InsertHashedBatch(stream.HashItems(items, nil))
}

// InsertHashedBatch ingests a pre-hashed batch; safe for concurrent
// use. The batch is grouped by owning shard first (shardIndexHashed
// over the carried hashes), then each touched shard is locked exactly
// once for its whole group — under N ingester goroutines the per-item
// lock traffic becomes one acquisition per shard per batch, and
// goroutines working disjoint shard groups proceed in parallel. Groups
// keep arrival order.
func (s *Sharded) InsertHashedBatch(items []stream.HashedItem) {
	if len(items) == 0 {
		return
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	if len(s.shards) == 1 {
		sh := &s.shards[0]
		sh.mu.Lock()
		sh.g.InsertHashedBatch(items)
		sh.mu.Unlock()
		return
	}
	groups := make([][]stream.HashedItem, len(s.shards))
	for i := range items {
		g := s.shardIndexHashed(items[i].HSrc, items[i].HDst)
		groups[g] = append(groups[g], items[i])
	}
	for i, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.g.InsertHashedBatch(grp)
		sh.mu.Unlock()
	}
}

// InsertEdge adds w to edge (src,dst); safe for concurrent use. Like
// GSS.InsertEdge it is the explicit untimed entry point over Insert.
func (s *Sharded) InsertEdge(src, dst string, w int64) {
	s.Insert(stream.Item{Src: src, Dst: dst, Weight: w})
}

// EdgeWeight queries the owning shard.
func (s *Sharded) EdgeWeight(src, dst string) (int64, bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	sh := &s.shards[s.shardIndex(src, dst)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.g.EdgeWeight(src, dst)
}

// Successors unions the shard-local successor sets.
func (s *Sharded) Successors(v string) []string {
	return s.unionAll(func(g *GSS) []string { return g.Successors(v) })
}

// Precursors unions the shard-local precursor sets.
func (s *Sharded) Precursors(v string) []string {
	return s.unionAll(func(g *GSS) []string { return g.Precursors(v) })
}

// Nodes unions the shard registries.
func (s *Sharded) Nodes() []string {
	return s.unionAll(func(g *GSS) []string { return g.Nodes() })
}

func (s *Sharded) unionAll(get func(*GSS) []string) []string {
	s.gate.RLock()
	defer s.gate.RUnlock()
	seen := map[string]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, v := range get(sh.g) {
			seen[v] = true
		}
		sh.mu.Unlock()
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// The hash-native query plane. Every shard runs the same scaled
// configuration, so the node-hash space is shared: a hash value means
// the same node in every shard, and per-shard results concatenate
// without translation. Shards route by the full 64-bit identifier
// hashes, so distinct edges whose endpoints collide onto the same node
// hashes can land in different shards: the edge weight sums over every
// shard (GSS never under-reports) and set unions deduplicate, as the
// windowed backend's generation unions do.

// NodeHash maps an identifier into the shared compressed node space.
func (s *Sharded) NodeHash(v string) uint64 {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.shards[0].g.NodeHash(v)
}

// EdgeWeightHash sums the sketch edge (hs, hd) over every shard. The
// string form routes by original identifiers, which hashes cannot
// recover, so the hash form asks every shard.
func (s *Sharded) EdgeWeightHash(hs, hd uint64) (int64, bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	var sum int64
	found := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		w, ok := sh.g.EdgeWeightHash(hs, hd)
		sh.mu.Unlock()
		if ok {
			sum += w
			found = true
		}
	}
	return sum, found
}

// AppendSuccessorHashes appends the union of the shard-local successor
// sets of hv to dst.
func (s *Sharded) AppendSuccessorHashes(hv uint64, dst []uint64) []uint64 {
	s.gate.RLock()
	defer s.gate.RUnlock()
	mark := len(dst)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		dst = sh.g.AppendSuccessorHashes(hv, dst)
		sh.mu.Unlock()
	}
	return DedupHashTail(dst, mark)
}

// AppendPrecursorHashes appends the union of the shard-local precursor
// sets of hv to dst.
func (s *Sharded) AppendPrecursorHashes(hv uint64, dst []uint64) []uint64 {
	s.gate.RLock()
	defer s.gate.RUnlock()
	mark := len(dst)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		dst = sh.g.AppendPrecursorHashes(hv, dst)
		sh.mu.Unlock()
	}
	return DedupHashTail(dst, mark)
}

// AppendNodeHashes appends the union of the shard registries' hash
// values to dst, deduplicated in place (sort + compact, no map).
func (s *Sharded) AppendNodeHashes(dst []uint64) []uint64 {
	s.gate.RLock()
	defer s.gate.RUnlock()
	mark := len(dst)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		dst = sh.g.AppendNodeHashes(dst)
		sh.mu.Unlock()
	}
	return DedupHashTail(dst, mark)
}

// AppendHashIDs appends the identifiers registered under hv across all
// shards, deduplicated (an endpoint registers in every shard holding
// one of its edges).
func (s *Sharded) AppendHashIDs(hv uint64, dst []string) []string {
	s.gate.RLock()
	defer s.gate.RUnlock()
	mark := len(dst)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		dst = sh.g.AppendHashIDs(hv, dst)
		sh.mu.Unlock()
	}
	// The per-hash identifier lists are tiny (collisions are rare by
	// design), so a quadratic scan beats sorting.
	out := dst[:mark]
	for _, id := range dst[mark:] {
		dup := false
		for _, have := range out[mark:] {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

// SupportsHashQueries reports whether the shards back the hash plane.
func (s *Sharded) SupportsHashQueries() bool {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.shards[0].g.SupportsHashQueries()
}

// DedupHashTail sorts dst[mark:] and removes duplicates in place — the
// union step every multi-partition hash query shares (shards here,
// window generations in internal/window).
func DedupHashTail(dst []uint64, mark int) []uint64 {
	tail := dst[mark:]
	if len(tail) < 2 {
		return dst
	}
	slices.Sort(tail)
	w := 1
	for i := 1; i < len(tail); i++ {
		if tail[i] != tail[i-1] {
			tail[w] = tail[i]
			w++
		}
	}
	return dst[:mark+w]
}

// Stats aggregates shard statistics.
func (s *Sharded) Stats() Stats {
	s.gate.RLock()
	defer s.gate.RUnlock()
	var agg Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st := sh.g.Stats()
		sh.mu.Unlock()
		if i == 0 {
			agg = st
			continue
		}
		agg.Items += st.Items
		agg.MatrixEdges += st.MatrixEdges
		agg.BufferEdges += st.BufferEdges
		agg.MatrixBytes += st.MatrixBytes
		agg.IndexedNodes += st.IndexedNodes
		agg.ReverseIndexBytes += st.ReverseIndexBytes
	}
	if total := agg.MatrixEdges + agg.BufferEdges; total > 0 {
		agg.BufferPct = float64(agg.BufferEdges) / float64(total)
	}
	return agg
}

// HeavyEdges merges the per-shard heavy-edge lists. An original edge
// lives in exactly one shard, so concatenation never double-counts; the
// merged list is re-sorted into the same order GSS.HeavyEdges uses.
func (s *Sharded) HeavyEdges(minWeight int64) []HeavyEdge {
	s.gate.RLock()
	defer s.gate.RUnlock()
	var out []HeavyEdge
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.g.HeavyEdges(minWeight)...)
		sh.mu.Unlock()
	}
	SortHeavyEdges(out)
	return out
}

// ShardCount reports the number of shards.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Sharded snapshot format: magic "GSSH", shard count uint32, then each
// shard's GSS snapshot in shard order. Shard routing is a pure function
// of (seed, count), so a same-count restore preserves edge placement.
var shardedMagic = [4]byte{'G', 'S', 'S', 'H'}

// Snapshot serializes all shards, locking one shard at a time.
func (s *Sharded) Snapshot(w io.Writer) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(shardedMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(s.shards))); err != nil {
		return err
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		_, err := sh.g.WriteTo(bw)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Restore replaces every shard's sketch with the snapshot read from r.
// The snapshot's shard count must match this sketch's — routing is
// keyed by count, so restoring into a differently sharded sketch would
// silently misroute every future query. No shard is modified on error.
func (s *Sharded) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if m != shardedMagic {
		return fmt.Errorf("%w: not a sharded snapshot", ErrBadSnapshot)
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("%w: truncated shard count", ErrBadSnapshot)
	}
	if int(n) != len(s.shards) {
		return fmt.Errorf("%w: snapshot has %d shards, sketch has %d",
			ErrBadSnapshot, n, len(s.shards))
	}
	gs := make([]*GSS, n)
	for i := range gs {
		g, err := ReadSketch(br)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		gs[i] = g
	}
	s.gate.Lock()
	for i := range s.shards {
		s.shards[i].g = gs[i]
	}
	s.gate.Unlock()
	return nil
}
