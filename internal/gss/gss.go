package gss

import (
	"math/bits"

	"repro/internal/hashing"
	"repro/internal/stream"
)

// GSS is a Graph Stream Sketch (Definition 5). It is not safe for
// concurrent use; wrap it in a mutex or shard streams by hash if
// parallel ingestion is needed.
type GSS struct {
	cfg Config
	nh  hashing.NodeHasher

	// Bucket matrix, struct-of-arrays per the bucket-separation layout
	// of §V-B2 (Fig. 7): index area, fingerprint area, weight area. Room
	// p of bucket (row, col) lives at slot (row*m+col)*l + p.
	idx     []uint8  // packed index pair: is<<4 | id
	fps     []uint32 // packed fingerprint pair: f(s)<<16 | f(d)
	weights []int64
	occ     []uint64 // occupancy bitset over room slots

	// colIdx is the per-column reverse index: colIdx[c] holds one entry
	// per occupied room in matrix column c, packed as
	// f(d)<<48 | id<<44 | H(s). The fingerprint plus destination
	// sequence index make the filter exact — f(d) and cols[id]==c
	// recover the destination hash by the same equation the matrix
	// decode uses — and the embedded source hash is the answer itself,
	// so a precursor query is a sequential scan of the r mapped
	// columns' lists that never touches the matrix: O(occupied rooms in
	// the mapped columns) instead of a full O(m*l) stride per column.
	// H(s) < 2^36 by the width cap, so one word holds everything. The
	// index is maintained on insert (rooms are never freed, so
	// append-only) and rebuilt from the matrix on Restore, which keeps
	// the snapshot format unchanged and old checkpoints loadable.
	colIdx [][]uint64

	buf     *buffer
	reg     *registry
	entries int   // occupied rooms in the matrix (distinct sketch edges there)
	items   int64 // stream items ingested

	// Scratch buffers so Insert and single-threaded queries do zero
	// allocations in steady state. Concurrent wrappers must NOT use
	// these from reader goroutines; they pass their own queryScratch
	// to the *With query variants instead.
	sc queryScratch

	// Batch-insert scratch: the hashed copy InsertBatch builds, so the
	// string path hashes each identifier exactly once. Guarded by
	// whatever serializes inserts (the wrappers' locks; the plain GSS
	// is single-threaded).
	hbatch []stream.HashedItem
}

// queryScratch holds the per-call buffers a probe sequence needs: the
// two address sequences, the candidate sample, and a reusable hash
// accumulator for the set primitives. Readers that share a sketch under
// a read lock each bring their own scratch so queries stay
// allocation-free without racing on shared buffers.
type queryScratch struct {
	rowSeq, colSeq, sample []uint32
	hashes                 []uint64 // set-primitive accumulator, reused across calls
}

func newQueryScratch(cfg Config) queryScratch {
	return queryScratch{
		rowSeq: make([]uint32, cfg.SeqLen),
		colSeq: make([]uint32, cfg.SeqLen),
		sample: make([]uint32, cfg.Candidates),
	}
}

// New builds an empty GSS for cfg.
func New(cfg Config) (*GSS, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	slots := cfg.Width * cfg.Width * cfg.Rooms
	g := &GSS{
		cfg:     cfg,
		nh:      hashing.NewNodeHasher(cfg.Width, cfg.FingerprintBits),
		idx:     make([]uint8, slots),
		fps:     make([]uint32, slots),
		weights: make([]int64, slots),
		occ:     make([]uint64, (slots+63)/64),
		colIdx:  make([][]uint64, cfg.Width),
		buf:     newBuffer(),
		sc:      newQueryScratch(cfg),
	}
	if !cfg.DisableNodeIndex {
		g.reg = newRegistry()
	}
	return g, nil
}

// MustNew is New for configurations known valid at compile time; it
// panics on error.
func MustNew(cfg Config) *GSS {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the normalized configuration the sketch runs with.
func (g *GSS) Config() Config { return g.cfg }

func (g *GSS) occupied(slot int) bool { return g.occ[slot>>6]&(1<<(uint(slot)&63)) != 0 }
func (g *GSS) setOccupied(slot int)   { g.occ[slot>>6] |= 1 << (uint(slot) & 63) }

// colIdxEntry packs one reverse-index entry: destination fingerprint,
// destination sequence index, and the stored edge's source hash.
func colIdxEntry(fpD uint32, id int, hvS uint64) uint64 {
	return uint64(fpD)<<48 | uint64(id)<<44 | hvS
}

// rebuildColumnIndex derives the reverse column index from the
// occupancy bitset and matrix areas. Restore uses it so the snapshot
// format stays index-free and checkpoints written before the index
// existed load unchanged. A slot's contents fully determine its index
// entry (the source hash decodes via square-hash reversibility), so the
// rebuilt index answers identically to one maintained online.
func (g *GSS) rebuildColumnIndex() {
	m, l := g.cfg.Width, g.cfg.Rooms
	g.colIdx = make([][]uint64, m)
	for w, word := range g.occ {
		for word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if slot >= len(g.idx) { // trailing bits past the matrix
				break
			}
			bucket := slot / l
			row, col := bucket/m, bucket%m
			hs, _ := g.decodeSlot(slot, uint32(row), uint32(col))
			g.colIdx[col] = append(g.colIdx[col],
				colIdxEntry(g.fps[slot]&0xffff, int(g.idx[slot]&0x0f), hs))
		}
	}
}

// reverseIndexBytes is the payload footprint of the reverse column
// index: one packed uint64 per occupied room.
func (g *GSS) reverseIndexBytes() int64 {
	var n int64
	for _, list := range g.colIdx {
		n += int64(len(list)) * 8
	}
	return n
}

// Insert ingests one stream item: the edge is mapped into the graph
// sketch and stored per the augmented edge-updating procedure of §V.
// This is the primary ingestion entry point and receives the item
// whole — the plain GSS summarizes the entire stream, so Time and
// Label do not affect placement here, but wrappers that route by them
// (the sliding-window backend, future labeled sketches) rely on every
// layer forwarding the full item rather than just (src, dst, weight).
func (g *GSS) Insert(it stream.Item) {
	hs := g.nh.Hash(it.Src)
	hd := g.nh.Hash(it.Dst)
	if g.reg != nil {
		g.reg.add(hs, it.Src)
		g.reg.add(hd, it.Dst)
	}
	g.insertHashed(hs, hd, it.Weight)
}

// InsertBatch ingests a slice of stream items. Each identifier is
// hashed exactly once, into a scratch copy of the batch, and the copy
// runs through InsertHashedBatch — the carried-hash math is one code
// path for both ingest planes.
func (g *GSS) InsertBatch(items []stream.Item) {
	if len(items) == 0 {
		return
	}
	g.hbatch = stream.HashItems(items, g.hbatch[:0])
	g.InsertHashedBatch(g.hbatch)
}

// InsertHashedBatch ingests a pre-hashed batch in arrival order: the
// carried hashes are reduced into this sketch's node space with one
// modulo each, and the identifier strings are only stored in the node
// registry — nothing on this path re-hashes Src or Dst. Rooms are taken
// in stream order (§V), so the sketch is a pure function of the item
// sequence: both ingest planes, any batch boundaries and log replay
// after a crash all produce byte-identical state.
func (g *GSS) InsertHashedBatch(items []stream.HashedItem) {
	M := g.nh.M()
	if g.reg != nil {
		for i := range items {
			g.reg.add(items[i].HSrc%M, items[i].Src)
			g.reg.add(items[i].HDst%M, items[i].Dst)
		}
	}
	for i := range items {
		g.insertHashed(items[i].HSrc%M, items[i].HDst%M, items[i].Weight)
	}
}

// InsertEdge adds w to edge (src,dst) of the streaming graph. It is
// the explicit untimed entry point: callers that have no timestamp
// (ablation drivers, merge tooling) use it deliberately, everything on
// the stream path goes through Insert so the item survives whole.
func (g *GSS) InsertEdge(src, dst string, w int64) {
	g.Insert(stream.Item{Src: src, Dst: dst, Weight: w})
}

// insertHashed inserts the sketch-graph edge H(s) -> H(d).
func (g *GSS) insertHashed(hvS, hvD uint64, w int64) {
	g.items++
	addrS, fpS := g.nh.Split(hvS)
	addrD, fpD := g.nh.Split(hvD)
	m := g.cfg.Width
	rows := hashing.AddressSequence(addrS, fpS, m, g.sc.rowSeq)
	cols := hashing.AddressSequence(addrD, fpD, m, g.sc.colSeq)
	fpPair := fpS<<16 | fpD

	tryBucket := func(i, j int) bool {
		idxPair := uint8(i)<<4 | uint8(j)
		base := (int(rows[i])*m + int(cols[j])) * g.cfg.Rooms
		for p := 0; p < g.cfg.Rooms; p++ {
			slot := base + p
			if !g.occupied(slot) {
				g.setOccupied(slot)
				g.idx[slot] = idxPair
				g.fps[slot] = fpPair
				g.weights[slot] = w
				g.entries++
				col := cols[j]
				g.colIdx[col] = append(g.colIdx[col], colIdxEntry(fpD, j, hvS))
				return true
			}
			// Bucket separation: the cheap index-pair comparison gates
			// the fingerprint comparison (§V-B2).
			if g.idx[slot] == idxPair && g.fps[slot] == fpPair {
				g.weights[slot] += w
				return true
			}
		}
		return false
	}

	if g.probeCandidates(fpS, fpD, g.sc.sample, tryBucket) {
		return
	}
	// All candidate buckets occupied by other edges: left-over edge.
	g.buf.add(hvS, hvD, w)
}

// probeCandidates invokes visit over the candidate bucket sequence of
// this edge — either the k sampled pairs of Eq. 5 or all r*r mapped
// buckets in row-major order — stopping early when visit returns true.
// The order is a pure function of the fingerprint pair, which keeps
// repeat insertions of the same edge finding the same slot. The sample
// slice is caller-provided scratch of length cfg.Candidates.
func (g *GSS) probeCandidates(fpS, fpD uint32, sample []uint32, visit func(i, j int) bool) bool {
	r := g.cfg.SeqLen
	if g.cfg.DisableSampling || r == 1 {
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				if visit(i, j) {
					return true
				}
			}
		}
		return false
	}
	seed := fpS + fpD // seed(e) = f(s) + f(d), §V-B1
	hashing.SampleSequence(seed, sample)
	for _, q := range sample {
		i, j := hashing.CandidatePair(q, r)
		if visit(i, j) {
			return true
		}
	}
	return false
}
