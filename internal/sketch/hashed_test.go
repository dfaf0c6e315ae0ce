package sketch

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gss"
	"repro/internal/stream"
)

// runHashedScript mirrors runScript on the binary plane: the same
// warmup items and the same batch boundaries, but every batch is
// pre-hashed at the "edge" before it reaches the backend. The
// conformance battery then diffs every observable against the
// string-plane baseline — the cross-backend pin that the two ingest
// planes are the same sketch.
func runHashedScript(sk Sketch, items []stream.Item) {
	// Warmup stays per-item but rides the binary plane too, one
	// single-item batch each, exercising the len==1 fast paths.
	for _, it := range items[:50] {
		InsertHashedBatch(sk, stream.HashItems([]stream.Item{it}, nil))
	}
	// Uneven chunk sizes so batch boundaries never line up with any
	// internal grouping (shard groups, window epoch runs).
	rng := rand.New(rand.NewSource(7))
	rest := items[50:]
	for i := 0; i < len(rest); {
		j := i + 1 + rng.Intn(200)
		if j > len(rest) {
			j = len(rest)
		}
		InsertHashedBatch(sk, stream.HashItems(rest[i:j], nil))
		i = j
	}
}

// TestHashedConformance runs every backend through the pre-hashed
// ingest script and diffs all observables against the string-plane
// bare-GSS baseline, then checks snapshot/restore after hashed
// inserts and that a restored sketch keeps accepting hashed batches.
func TestHashedConformance(t *testing.T) {
	items := conformanceStream()
	baselineSk := gss.MustNew(conformanceCfg)
	runScript(baselineSk, items)
	baseline := observe(baselineSk, items)
	if baseline.Items != int64(len(items)) || len(baseline.Edges) == 0 {
		t.Fatalf("weak baseline: %d items, %d edges", baseline.Items, len(baseline.Edges))
	}

	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			sk, err := New(backend, conformanceCfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			runHashedScript(sk, items)
			diffObservations(t, "hashed ingest", observe(sk, items), baseline)

			// Snapshot after hashed inserts, restore into a fresh
			// instance, and keep ingesting on the binary plane.
			var snap bytes.Buffer
			if err := sk.Snapshot(&snap); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			restored, err := New(backend, conformanceCfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("restore: %v", err)
			}
			diffObservations(t, "restore", observe(restored, items), baseline)
			post := stream.Item{Src: "post-restore", Dst: "hashed-write",
				Weight: 5, Time: items[len(items)-1].Time}
			InsertHashedBatch(restored, stream.HashItems([]stream.Item{post}, nil))
			if w, ok := restored.EdgeWeight(post.Src, post.Dst); !ok || w != 5 {
				t.Fatalf("post-restore hashed insert = %d,%v", w, ok)
			}
		})
	}
}

// TestPlanesSnapshotIdentical: every backend inserts in arrival order,
// so one stream sent through InsertBatch and through InsertHashedBatch,
// at different batch boundaries, must leave byte-identical snapshots —
// what lets oplog replay rebuild a binary-fed sketch exactly. The
// config is tight (node-hash collisions, buffer spill), so any
// reordering would move edges between rooms and show in the bytes.
func TestPlanesSnapshotIdentical(t *testing.T) {
	cfg := gss.Config{Width: 24, FingerprintBits: 8, Rooms: 2, SeqLen: 4, Candidates: 4}
	items := conformanceStream()
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			plain, err := New(backend, cfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(items); i += 100 {
				plain.InsertBatch(items[i:min(i+100, len(items))])
			}
			hashed, err := New(backend, cfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			runHashedScript(hashed, items)

			var a, b bytes.Buffer
			if err := plain.Snapshot(&a); err != nil {
				t.Fatal(err)
			}
			if err := hashed.Snapshot(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("snapshots differ: InsertBatch %d bytes, InsertHashedBatch %d bytes",
					a.Len(), b.Len())
			}
			if st := plain.Stats(); st.BufferEdges == 0 {
				t.Fatalf("config too roomy to exercise placement: %+v", st)
			}
		})
	}
}
