package gss

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hashing"
	"repro/internal/stream"
)

func randomStream(n int, seed int64) []stream.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]stream.Item, n)
	for i := range items {
		items[i] = stream.Item{
			Src:    fmt.Sprintf("node-%d", rng.Intn(n/8+1)),
			Dst:    fmt.Sprintf("node-%d", rng.Intn(n/8+1)),
			Time:   int64(i),
			Weight: rng.Int63n(20) + 1,
			Label:  uint32(rng.Intn(3)),
		}
	}
	return items
}

// hashedQuerier is the query surface the plane-equivalence check needs,
// satisfied by GSS, Concurrent and Sharded alike.
type hashedQuerier interface {
	EdgeWeight(src, dst string) (int64, bool)
	Successors(v string) []string
	Precursors(v string) []string
	Nodes() []string
	Stats() Stats
}

// diffPlanes compares every observable of two sketches that ingested
// the same stream on different planes. The config must be oversized
// for the stream (no fingerprint collisions, no room overflow), so
// both planes answer exactly and must agree.
func diffPlanes(t *testing.T, items []stream.Item, ref, hashed hashedQuerier) {
	t.Helper()
	if a, b := ref.Stats().Items, hashed.Stats().Items; a != b {
		t.Fatalf("item counts diverge: %d vs %d", a, b)
	}
	seen := map[[2]string]bool{}
	nodes := map[string]bool{}
	for _, it := range items {
		nodes[it.Src], nodes[it.Dst] = true, true
		k := [2]string{it.Src, it.Dst}
		if seen[k] {
			continue
		}
		seen[k] = true
		wa, oka := ref.EdgeWeight(it.Src, it.Dst)
		wb, okb := hashed.EdgeWeight(it.Src, it.Dst)
		if oka != okb || wa != wb {
			t.Fatalf("edge %v: string plane (%d,%v), hashed plane (%d,%v)", k, wa, oka, wb, okb)
		}
	}
	for v := range nodes {
		sa, sb := ref.Successors(v), hashed.Successors(v)
		sort.Strings(sa)
		sort.Strings(sb)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("successors(%s) diverge: %v vs %v", v, sa, sb)
		}
		pa, pb := ref.Precursors(v), hashed.Precursors(v)
		sort.Strings(pa)
		sort.Strings(pb)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("precursors(%s) diverge: %v vs %v", v, pa, pb)
		}
	}
	na, nb := ref.Nodes(), hashed.Nodes()
	sort.Strings(na)
	sort.Strings(nb)
	if !reflect.DeepEqual(na, nb) {
		t.Fatalf("node sets diverge: %d vs %d nodes", len(na), len(nb))
	}
}

// roomyConfig has no collisions and no buffer spill for the randomized
// streams below, so every answer is exact and the two ingest planes
// must agree observable-for-observable.
func roomyConfig() Config {
	return Config{Width: 128, FingerprintBits: 16, Rooms: 4, SeqLen: 8, Candidates: 8}
}

// TestInsertHashedBatchMatchesInsertBatch pins the binary ingest plane
// to the string plane on the plain GSS with randomized chunking on the
// hashed side.
func TestInsertHashedBatchMatchesInsertBatch(t *testing.T) {
	items := randomStream(4000, 99)
	ref := MustNew(roomyConfig())
	hashed := MustNew(roomyConfig())
	ref.InsertBatch(items)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < len(items); {
		j := i + 1 + rng.Intn(300)
		if j > len(items) {
			j = len(items)
		}
		hashed.InsertHashedBatch(stream.HashItems(items[i:j], nil))
		i = j
	}
	diffPlanes(t, items, ref, hashed)
}

// TestInsertHashedBatchUsesCarriedHashes is the no-re-hash assertion:
// a hashed item whose carried hashes belong to DIFFERENT identifiers
// must be placed (and register its strings) under the carried hashes.
// If any layer past the edge re-derived the hashes from Src/Dst, the
// edge would surface under ("x","y") instead.
func TestInsertHashedBatchUsesCarriedHashes(t *testing.T) {
	g := MustNew(smallConfig())
	hs, hd := hashing.Hash64("a"), hashing.Hash64("b")
	g.InsertHashedBatch([]stream.HashedItem{{
		Item: stream.Item{Src: "x", Dst: "y", Weight: 7},
		HSrc: hs, HDst: hd,
		FPs: stream.PackFingerprints(hs, hd),
	}})
	if w, ok := g.EdgeWeightHash(g.NodeHash("a"), g.NodeHash("b")); !ok || w != 7 {
		t.Fatalf("edge not found under the carried hashes: (%d, %v)", w, ok)
	}
	if _, ok := g.EdgeWeightHash(g.NodeHash("x"), g.NodeHash("y")); ok {
		t.Fatal("edge found under re-derived hashes: an insert layer re-hashed Src/Dst")
	}
	// The registry stored the strings under the carried hashes too.
	ids := g.AppendHashIDs(g.NodeHash("a"), nil)
	if !reflect.DeepEqual(ids, []string{"x"}) {
		t.Fatalf("registry under carried source hash = %v, want [x]", ids)
	}
}

// TestShardIndexHashedMatchesString pins the carried-hash shard router
// to the string one on random identifiers and shard counts — the
// invariant that keeps hashed inserts landing on the same shards as
// string inserts, snapshot compatibility included.
func TestShardIndexHashedMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shards := range []int{1, 2, 3, 7, 16} {
		s, err := NewSharded(smallConfig(), shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			src := fmt.Sprintf("s%d", rng.Intn(1000))
			dst := fmt.Sprintf("d%d", rng.Intn(1000))
			want := s.shardIndex(src, dst)
			got := s.shardIndexHashed(hashing.Hash64(src), hashing.Hash64(dst))
			if got != want {
				t.Fatalf("shards=%d (%s,%s): hashed route %d, string route %d",
					shards, src, dst, got, want)
			}
		}
	}
}

// TestShardedInsertHashedBatchMatchesInsertBatch runs the plane
// differential across the sharded wrapper: same shard routing, same
// per-shard answers.
func TestShardedInsertHashedBatchMatchesInsertBatch(t *testing.T) {
	items := randomStream(3000, 17)
	ref, err := NewSharded(roomyConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := NewSharded(roomyConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ref.InsertBatch(items)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < len(items); {
		j := i + 1 + rng.Intn(250)
		if j > len(items) {
			j = len(items)
		}
		hashed.InsertHashedBatch(stream.HashItems(items[i:j], nil))
		i = j
	}
	diffPlanes(t, items, ref, hashed)
}

// TestConcurrentInsertHashedBatch covers the locked wrapper's hashed
// entry point.
func TestConcurrentInsertHashedBatch(t *testing.T) {
	items := randomStream(1000, 41)
	ref, err := NewConcurrent(roomyConfig())
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := NewConcurrent(roomyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref.InsertBatch(items)
	hashed.InsertHashedBatch(stream.HashItems(items, nil))
	diffPlanes(t, items, ref, hashed)
}

// TestRegionPackKeepsRegistryOrder: the registry records identifiers
// in arrival order on the hashed plane too, so collision listings stay
// deterministic across both planes. DisableNodeIndex-free tight config
// forces hash collisions so per-hash listing order is actually
// observable.
func TestRegionPackKeepsRegistryOrder(t *testing.T) {
	cfg := Config{Width: 16, FingerprintBits: 4, Rooms: 2, SeqLen: 4, Candidates: 4}
	items := randomStream(500, 3)
	a, b := MustNew(cfg), MustNew(cfg)
	a.InsertHashedBatch(stream.HashItems(items, nil))
	for _, it := range items {
		b.Insert(it)
	}
	// Per-hash listings must match the per-item reference exactly,
	// including order under collisions.
	hashes := b.AppendNodeHashes(nil)
	for _, hv := range hashes {
		got := a.AppendHashIDs(hv, nil)
		want := b.AppendHashIDs(hv, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("registry listing for hash %d diverged: %v vs %v", hv, got, want)
		}
	}
}
