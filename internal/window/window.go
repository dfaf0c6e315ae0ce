// Package window extends GSS to sliding-window summarization of
// unbounded streams — an extension beyond the paper (its sketches grow
// with the whole stream). A Sliding summary keeps g generation sketches
// covering span/g time units each; expired generations are dropped
// whole, so the summary always covers between span·(g-1)/g and span
// time units and memory stays bounded regardless of stream length.
//
// Queries merge all live generations: weights add up, neighbor sets
// union, preserving the false-positive-only semantics of GSS.
//
// Sliding implements the full sketch.Sketch deployment surface
// (batched ingestion, heavy edges, statistics, snapshot/restore), so
// it plugs into the HTTP server and benchmark harness as the
// "windowed" backend. Like the plain GSS it is not safe for
// concurrent use; the backend factory wraps it in a mutex adapter.
package window

import (
	"errors"
	"math"
	"sort"

	"repro/internal/gss"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// Config configures a sliding-window summary.
type Config struct {
	// Sketch is the per-generation GSS configuration.
	Sketch gss.Config
	// Span is the window length in stream-time units.
	Span int64
	// Generations is the rotation granularity g (>= 2). More
	// generations mean finer expiry at more memory.
	Generations int
}

// Sliding is a sliding-window GSS. Not safe for concurrent use.
type Sliding struct {
	cfg   Config
	skCfg gss.Config // normalized per-generation configuration
	nh    hashing.NodeHasher
	gens  []generation

	// epoch is the current (newest) generation index,
	// floorDiv(time, genSpan). It is meaningless until started is set
	// by the first insert: epoch 0 is a real epoch (as is -1 for
	// pre-epoch timestamps), so no int64 value can act as a sentinel.
	epoch   int64
	started bool

	expiredGens       int64 // generations rotated out since creation
	expiredItems      int64 // items those generations summarized
	droppedStragglers int64 // items already older than the window on arrival
}

type generation struct {
	epoch  int64
	sketch *gss.GSS
}

// New builds an empty sliding-window summary.
func New(cfg Config) (*Sliding, error) {
	if cfg.Span <= 0 {
		return nil, errors.New("window: Config.Span must be positive")
	}
	if cfg.Generations < 2 {
		return nil, errors.New("window: Config.Generations must be at least 2")
	}
	if cfg.Span < int64(cfg.Generations) {
		return nil, errors.New("window: Span must be at least Generations time units")
	}
	skCfg, err := cfg.Sketch.Normalized()
	if err != nil {
		return nil, err
	}
	return &Sliding{cfg: cfg, skCfg: skCfg,
		nh: hashing.NewNodeHasher(skCfg.Width, skCfg.FingerprintBits)}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Sliding {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the configuration the summary runs with.
func (s *Sliding) Config() Config { return s.cfg }

func (s *Sliding) genSpan() int64 { return s.cfg.Span / int64(s.cfg.Generations) }

// floorDiv divides rounding toward negative infinity, so pre-epoch
// (negative) timestamps land in epochs -1, -2, ... instead of
// collapsing into epoch 0 alongside the adjacent positive times (as
// Go's truncating division would make them).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// advance moves the epoch cursor forward to epoch (rotating out
// generations that leave the window) and reports whether an item in
// epoch is still inside the window.
func (s *Sliding) advance(epoch int64) bool {
	if !s.started {
		s.started = true
		s.epoch = epoch
	} else if epoch > s.epoch {
		s.epoch = epoch
		s.expire()
	}
	return epoch > s.epoch-int64(s.cfg.Generations)
}

// Insert ingests one item, rotating generations forward to the item's
// timestamp. Items must arrive in non-decreasing time order; stragglers
// older than the window are dropped (and counted in Stats).
func (s *Sliding) Insert(it stream.Item) {
	s.InsertHashedBatch([]stream.HashedItem{stream.HashItem(it)})
}

// InsertBatch ingests a slice of items: each identifier is hashed once
// and the batch takes the hashed path, so both ingest planes share one
// epoch-run grouping.
func (s *Sliding) InsertBatch(items []stream.Item) {
	s.InsertHashedBatch(stream.HashItems(items, nil))
}

// InsertHashedBatch ingests a pre-hashed batch, grouping consecutive
// same-epoch runs so rotation and the generation lookup happen once
// per run instead of once per item — on a time-ordered stream that is
// one lookup per generation touched by the batch. Each run goes to its
// live generation's hashed path, where the carried hashes reduce into
// the generation's node space; nothing in the windowed layer re-hashes
// an identifier.
func (s *Sliding) InsertHashedBatch(items []stream.HashedItem) {
	span := s.genSpan()
	for i := 0; i < len(items); {
		epoch := floorDiv(items[i].Time, span)
		j := i + 1
		for j < len(items) && floorDiv(items[j].Time, span) == epoch {
			j++
		}
		if s.advance(epoch) {
			s.generationFor(epoch).InsertHashedBatch(items[i:j])
		} else {
			s.droppedStragglers += int64(j - i)
		}
		i = j
	}
}

func (s *Sliding) generationFor(epoch int64) *gss.GSS {
	for i := range s.gens {
		if s.gens[i].epoch == epoch {
			return s.gens[i].sketch
		}
	}
	// Built from the stored normalized config — the single source of
	// truth Stats reports and Restore validates against.
	sk := gss.MustNew(s.skCfg)
	s.gens = append(s.gens, generation{epoch: epoch, sketch: sk})
	sort.Slice(s.gens, func(i, j int) bool { return s.gens[i].epoch < s.gens[j].epoch })
	return sk
}

// expire drops generations that left the window.
func (s *Sliding) expire() {
	oldest := s.epoch - int64(s.cfg.Generations) + 1
	kept := s.gens[:0]
	for _, g := range s.gens {
		if g.epoch >= oldest {
			kept = append(kept, g)
		} else {
			s.expiredGens++
			s.expiredItems += g.sketch.Stats().Items
		}
	}
	for i := len(kept); i < len(s.gens); i++ {
		s.gens[i] = generation{}
	}
	s.gens = kept
}

// EdgeWeight sums the edge's weight over all live generations.
func (s *Sliding) EdgeWeight(src, dst string) (int64, bool) {
	var sum int64
	found := false
	for _, g := range s.gens {
		if w, ok := g.sketch.EdgeWeight(src, dst); ok {
			sum += w
			found = true
		}
	}
	return sum, found
}

// Successors unions the 1-hop successors across generations.
func (s *Sliding) Successors(v string) []string {
	return s.unionSets(func(g *gss.GSS) []string { return g.Successors(v) })
}

// Precursors unions the 1-hop precursors across generations.
func (s *Sliding) Precursors(v string) []string {
	return s.unionSets(func(g *gss.GSS) []string { return g.Precursors(v) })
}

// Nodes unions the registered nodes across generations.
func (s *Sliding) Nodes() []string {
	return s.unionSets(func(g *gss.GSS) []string { return g.Nodes() })
}

// The hash-native query plane (query.HashSummary). Every generation
// runs the same normalized configuration, so hash values mean the same
// node in every generation and cross-generation unions need no
// translation. Unlike the sharded backend, the same edge can live in
// several generations (one per window slice it was observed in), so
// set unions deduplicate the appended tail in place.

// NodeHash maps an identifier into the shared compressed node space.
func (s *Sliding) NodeHash(v string) uint64 { return s.nh.Hash(v) }

// EdgeWeightHash sums the sketch edge's weight over live generations.
func (s *Sliding) EdgeWeightHash(hs, hd uint64) (int64, bool) {
	var sum int64
	found := false
	for _, g := range s.gens {
		if w, ok := g.sketch.EdgeWeightHash(hs, hd); ok {
			sum += w
			found = true
		}
	}
	return sum, found
}

// AppendSuccessorHashes appends the union of per-generation successor
// sets of hv to dst.
func (s *Sliding) AppendSuccessorHashes(hv uint64, dst []uint64) []uint64 {
	mark := len(dst)
	for _, g := range s.gens {
		dst = g.sketch.AppendSuccessorHashes(hv, dst)
	}
	return gss.DedupHashTail(dst, mark)
}

// AppendPrecursorHashes appends the union of per-generation precursor
// sets of hv to dst.
func (s *Sliding) AppendPrecursorHashes(hv uint64, dst []uint64) []uint64 {
	mark := len(dst)
	for _, g := range s.gens {
		dst = g.sketch.AppendPrecursorHashes(hv, dst)
	}
	return gss.DedupHashTail(dst, mark)
}

// AppendNodeHashes appends the union of per-generation registries.
func (s *Sliding) AppendNodeHashes(dst []uint64) []uint64 {
	mark := len(dst)
	for _, g := range s.gens {
		dst = g.sketch.AppendNodeHashes(dst)
	}
	return gss.DedupHashTail(dst, mark)
}

// AppendHashIDs appends the identifiers registered under hv across
// generations, deduplicated (a node active in several generations
// registers in each).
func (s *Sliding) AppendHashIDs(hv uint64, dst []string) []string {
	mark := len(dst)
	for _, g := range s.gens {
		next := g.sketch.AppendHashIDs(hv, dst)
		// Drop ids already appended by an earlier generation; per-hash
		// lists are tiny, so the scan is cheap.
		out := next[:len(dst)]
		for _, id := range next[len(dst):] {
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
		dst = out
	}
	return dst
}

// SupportsHashQueries reports whether the generations back the hash
// plane; the normalized config decides, so an empty window answers too.
func (s *Sliding) SupportsHashQueries() bool { return !s.skCfg.DisableNodeIndex }

func (s *Sliding) unionSets(get func(*gss.GSS) []string) []string {
	seen := map[string]bool{}
	for _, g := range s.gens {
		for _, v := range get(g.sketch) {
			seen[v] = true
		}
	}
	return sortedKeys(seen)
}

func sortedKeys(seen map[string]bool) []string {
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

// HeavyEdges lists sketch edges whose weight summed over the live
// window reaches minWeight. An edge's window weight is spread over up
// to Generations sketches, so every generation is scanned unfiltered
// and the per-edge sums are thresholded afterwards — an edge heavy in
// total but light in every single generation is still found.
func (s *Sliding) HeavyEdges(minWeight int64) []gss.HeavyEdge {
	type key struct{ s, d uint64 }
	merged := map[key]*gss.HeavyEdge{}
	for _, g := range s.gens {
		for _, he := range g.sketch.HeavyEdges(math.MinInt64) {
			k := key{he.SrcHash, he.DstHash}
			m, ok := merged[k]
			if !ok {
				cp := he
				merged[k] = &cp
				continue
			}
			m.Weight += he.Weight
			m.Srcs = unionStrings(m.Srcs, he.Srcs)
			m.Dsts = unionStrings(m.Dsts, he.Dsts)
		}
	}
	var out []gss.HeavyEdge
	for _, he := range merged {
		if he.Weight >= minWeight {
			out = append(out, *he)
		}
	}
	gss.SortHeavyEdges(out)
	return out
}

// unionStrings merges two identifier lists, deduplicated and sorted.
func unionStrings(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	seen := make(map[string]bool, len(a)+len(b))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		seen[v] = true
	}
	return sortedKeys(seen)
}

// Stats aggregates the live generations' statistics and reports the
// window counters: live/expired generation counts, items expired with
// them, and stragglers dropped on arrival. Items counts only what the
// live window still summarizes.
func (s *Sliding) Stats() gss.Stats {
	st := gss.Stats{
		Width:           s.skCfg.Width,
		Rooms:           s.skCfg.Rooms,
		SeqLen:          s.skCfg.SeqLen,
		Candidates:      s.skCfg.Candidates,
		FingerprintBits: s.skCfg.FingerprintBits,

		WindowSpan:         s.cfg.Span,
		LiveGenerations:    len(s.gens),
		ExpiredGenerations: s.expiredGens,
		ExpiredItems:       s.expiredItems,
		DroppedStragglers:  s.droppedStragglers,
	}
	for _, g := range s.gens {
		gs := g.sketch.Stats()
		st.Items += gs.Items
		st.MatrixEdges += gs.MatrixEdges
		st.BufferEdges += gs.BufferEdges
		st.MatrixBytes += gs.MatrixBytes
		st.ReverseIndexBytes += gs.ReverseIndexBytes
	}
	// Deduplicated across generations — a node active in every
	// generation is still one node, and this count must agree with
	// Nodes(). Only the count is needed, so the unsorted iterator
	// avoids per-generation sorts on every stats poll. (The
	// per-generation registries still store a shared node g times;
	// MatrixBytes deliberately excludes registries, as in plain GSS.)
	seen := map[string]bool{}
	for _, g := range s.gens {
		g.sketch.EachNode(func(id string) { seen[id] = true })
	}
	st.IndexedNodes = len(seen)
	if slots := len(s.gens) * s.skCfg.Width * s.skCfg.Width * s.skCfg.Rooms; slots > 0 {
		st.Occupancy = float64(st.MatrixEdges) / float64(slots)
	}
	if total := st.MatrixEdges + st.BufferEdges; total > 0 {
		st.BufferPct = float64(st.BufferEdges) / float64(total)
	}
	return st
}

// LiveGenerations reports how many generation sketches are resident.
func (s *Sliding) LiveGenerations() int { return len(s.gens) }

// MemoryBytes sums the matrix footprints of live generations.
func (s *Sliding) MemoryBytes() int64 {
	var sum int64
	for _, g := range s.gens {
		sum += g.sketch.MemoryBytes()
	}
	return sum
}
