package gss

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/adjlist"
	"repro/internal/stream"
)

func TestShardedMatchesExact(t *testing.T) {
	items := stream.Generate(stream.EmailEuAll().Scaled(0.002))
	s, err := NewSharded(Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact := adjlist.New()
	for _, it := range items {
		s.Insert(it)
		exact.Insert(it.Src, it.Dst, it.Weight)
	}
	for _, it := range items {
		want, _ := exact.EdgeWeight(it.Src, it.Dst)
		got, ok := s.EdgeWeight(it.Src, it.Dst)
		if !ok || got < want {
			t.Fatalf("edge (%s,%s): %d,%v want >= %d", it.Src, it.Dst, got, ok, want)
		}
	}
	nodes := exact.Nodes()
	if len(nodes) > 100 {
		nodes = nodes[:100]
	}
	for _, v := range nodes {
		got := map[string]bool{}
		for _, u := range s.Successors(v) {
			got[u] = true
		}
		for _, u := range exact.Successors(v) {
			if !got[u] {
				t.Fatalf("sharded lost successor %s of %s", u, v)
			}
		}
	}
}

func TestShardedParallelIngestion(t *testing.T) {
	items := stream.Generate(stream.LkmlReply().Scaled(0.002))
	s, err := NewSharded(Config{Width: 48, SeqLen: 4, Candidates: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(items); i += workers {
				s.Insert(items[i])
			}
		}(w)
	}
	wg.Wait()
	if got := s.Stats().Items; got != int64(len(items)) {
		t.Fatalf("items = %d, want %d", got, len(items))
	}
	missing := 0
	for _, it := range items {
		if _, ok := s.EdgeWeight(it.Src, it.Dst); !ok {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d edges lost under parallel ingestion", missing)
	}
}

func TestShardedMemoryComparable(t *testing.T) {
	single := MustNew(Config{Width: 64})
	s, err := NewSharded(Config{Width: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 shards of width 32 = same total rooms as one width-64 sketch.
	if got, want := s.Stats().MatrixBytes, single.MemoryBytes(); got > want+want/8 {
		t.Fatalf("sharded memory %d far above single %d", got, want)
	}
	if s.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", s.ShardCount())
	}
}

func TestShardedDegenerateShardCount(t *testing.T) {
	s, err := NewSharded(Config{Width: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", s.ShardCount())
	}
	s.InsertEdge("a", "b", 2)
	if w, ok := s.EdgeWeight("a", "b"); !ok || w != 2 {
		t.Fatalf("w = %d,%v", w, ok)
	}
}

func TestIntSqrtScale(t *testing.T) {
	cases := []struct{ w, n, want int }{
		{64, 4, 32}, {64, 1, 64}, {100, 2, 70}, {3, 100, 1},
	}
	for _, c := range cases {
		if got := ScaleWidth(c.w, c.n); got != c.want {
			t.Errorf("ScaleWidth(%d,%d) = %d, want %d", c.w, c.n, got, c.want)
		}
	}
}

// TestShardedInsertBatchMatchesItemwise is the batch-split-by-shard
// correctness check: grouping a batch by shard and inserting each group
// under one lock must land every item on the same shard, and therefore
// the same slot, as item-at-a-time insertion — identical edge weights
// and identical aggregate stats.
func TestShardedInsertBatchMatchesItemwise(t *testing.T) {
	items := stream.Generate(stream.EmailEuAll().Scaled(0.002))
	cfg := Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	itemwise, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		itemwise.Insert(it)
	}
	// Uneven batch sizes exercise the grouping boundaries.
	for off := 0; off < len(items); {
		end := off + 1 + off%97
		if end > len(items) {
			end = len(items)
		}
		batched.InsertBatch(items[off:end])
		off = end
	}
	if a, b := itemwise.Stats(), batched.Stats(); a != b {
		t.Fatalf("stats diverge:\nitemwise %+v\nbatched  %+v", a, b)
	}
	for _, it := range items {
		wa, oka := itemwise.EdgeWeight(it.Src, it.Dst)
		wb, okb := batched.EdgeWeight(it.Src, it.Dst)
		if wa != wb || oka != okb {
			t.Fatalf("edge (%s,%s): itemwise %d,%v batched %d,%v",
				it.Src, it.Dst, wa, oka, wb, okb)
		}
	}
}

// TestShardedBatchTotalsMatchSingle checks the sharded batched totals
// against one unsharded sketch: identical item counts, and per-edge
// weights that both dominate the exact ground truth.
func TestShardedBatchTotalsMatchSingle(t *testing.T) {
	items := stream.Generate(stream.LkmlReply().Scaled(0.002))
	single := MustNew(Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8})
	sharded, err := NewSharded(Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact := adjlist.New()
	single.InsertBatch(items)
	sharded.InsertBatch(items)
	for _, it := range items {
		exact.Insert(it.Src, it.Dst, it.Weight)
	}
	if s, sh := single.Stats().Items, sharded.Stats().Items; s != sh || s != int64(len(items)) {
		t.Fatalf("items: single %d sharded %d want %d", s, sh, len(items))
	}
	for _, it := range items {
		want, _ := exact.EdgeWeight(it.Src, it.Dst)
		if w, ok := single.EdgeWeight(it.Src, it.Dst); !ok || w < want {
			t.Fatalf("single edge (%s,%s) = %d,%v want >= %d", it.Src, it.Dst, w, ok, want)
		}
		if w, ok := sharded.EdgeWeight(it.Src, it.Dst); !ok || w < want {
			t.Fatalf("sharded edge (%s,%s) = %d,%v want >= %d", it.Src, it.Dst, w, ok, want)
		}
	}
}

func TestShardedConcurrentInsertBatch(t *testing.T) {
	items := stream.Generate(stream.LkmlReply().Scaled(0.002))
	s, err := NewSharded(Config{Width: 48, SeqLen: 4, Candidates: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	per := (len(items) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(items) {
			hi = len(items)
		}
		wg.Add(1)
		go func(chunk []stream.Item) {
			defer wg.Done()
			for off := 0; off < len(chunk); off += 100 {
				end := off + 100
				if end > len(chunk) {
					end = len(chunk)
				}
				s.InsertBatch(chunk[off:end])
			}
		}(items[lo:hi])
	}
	wg.Wait()
	if got := s.Stats().Items; got != int64(len(items)) {
		t.Fatalf("items = %d, want %d", got, len(items))
	}
	for _, it := range items {
		if _, ok := s.EdgeWeight(it.Src, it.Dst); !ok {
			t.Fatalf("edge (%s,%s) lost under concurrent batch ingestion", it.Src, it.Dst)
		}
	}
}

func TestShardedSnapshotRestore(t *testing.T) {
	items := stream.Generate(stream.EmailEuAll().Scaled(0.001))
	cfg := Config{Width: 48, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	s, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.InsertBatch(items)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a, b := s.Stats(), restored.Stats(); a != b {
		t.Fatalf("stats diverge after restore: %+v vs %+v", a, b)
	}
	for _, it := range items {
		wa, oka := s.EdgeWeight(it.Src, it.Dst)
		wb, okb := restored.EdgeWeight(it.Src, it.Dst)
		if wa != wb || oka != okb {
			t.Fatalf("edge (%s,%s) diverges after restore", it.Src, it.Dst)
		}
	}

	// Shard-count mismatch must be rejected, not misrouted.
	wrong, err := NewSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into 8 shards from a 4-shard snapshot accepted")
	}
	// A single-GSS snapshot is not a sharded snapshot.
	var single bytes.Buffer
	if err := MustNew(cfg).Snapshot(&single); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(single.Bytes())); err == nil {
		t.Fatal("restore from unsharded snapshot accepted")
	}
}

func TestShardedHeavyEdges(t *testing.T) {
	s, err := NewSharded(Config{Width: 32, SeqLen: 4, Candidates: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.InsertEdge("big", "flow", 500)
	s.InsertEdge("bigger", "flow", 900)
	s.InsertEdge("small", "flow", 2)
	heavy := s.HeavyEdges(100)
	if len(heavy) != 2 {
		t.Fatalf("heavy = %d edges, want 2", len(heavy))
	}
	if heavy[0].Weight != 900 || heavy[1].Weight != 500 {
		t.Fatalf("heavy order = %d,%d want 900,500", heavy[0].Weight, heavy[1].Weight)
	}
}

// TestShardedHashPlaneUnderCollisions: shards route by full identifier
// hashes, so under node-hash collisions distinct edges sharing one
// sketch edge (hs, hd) land in different shards. The hash plane must
// still answer like one unsharded GSS of the shard config (which holds
// the sketch graph exactly): weights summed over every shard, never
// under-reported, and set unions free of duplicates.
func TestShardedHashPlaneUnderCollisions(t *testing.T) {
	cfg := Config{Width: 16, FingerprintBits: 2}
	const n = 8
	s, err := NewSharded(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	ref := MustNew(Config{Width: ScaleWidth(cfg.Width, n), FingerprintBits: cfg.FingerprintBits})
	rng := rand.New(rand.NewSource(1))
	items := make([]stream.Item, 3000)
	for i := range items {
		items[i] = stream.Item{Src: fmt.Sprintf("n%d", rng.Intn(400)),
			Dst: fmt.Sprintf("n%d", rng.Intn(400)), Weight: 1 + rng.Int63n(9)}
	}
	s.InsertBatch(items)
	ref.InsertBatch(items)

	for _, it := range items {
		hs, hd := s.NodeHash(it.Src), s.NodeHash(it.Dst)
		got, ok := s.EdgeWeightHash(hs, hd)
		want, _ := ref.EdgeWeightHash(hs, hd)
		if !ok || got != want {
			t.Fatalf("EdgeWeightHash(%s,%s) = %d,%v, unsharded %d", it.Src, it.Dst, got, ok, want)
		}
	}
	for _, hv := range ref.AppendNodeHashes(nil) {
		for _, dir := range []struct {
			name      string
			got, want []uint64
		}{
			{"successors", s.AppendSuccessorHashes(hv, nil), ref.AppendSuccessorHashes(hv, nil)},
			{"precursors", s.AppendPrecursorHashes(hv, nil), ref.AppendPrecursorHashes(hv, nil)},
		} {
			slices.Sort(dir.got)
			slices.Sort(dir.want)
			if !slices.Equal(dir.got, slices.Compact(dir.want)) {
				t.Fatalf("%s of hash %d = %v, unsharded %v", dir.name, hv, dir.got, dir.want)
			}
		}
	}
}
