package sketch

import (
	"bytes"
	"testing"

	"repro/internal/gss"
	"repro/internal/query"
	"repro/internal/stream"
)

var testCfg = gss.Config{Width: 48, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}

// testOpts gives the windowed backend a span far beyond any generated
// timestamp, so in the cross-backend conformance tests it covers the
// whole stream and must agree with the unbounded backends exactly.
// Windowed-specific expiry behavior is exercised in windowed_test.go.
var testOpts = Options{Shards: 4, WindowSpan: 1 << 30, WindowGenerations: 4}

func TestFactoryBackends(t *testing.T) {
	for _, backend := range Backends() {
		sk, err := New(backend, testCfg, testOpts)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		sk.Insert(stream.Item{Src: "a", Dst: "b", Weight: 2})
		sk.InsertBatch([]stream.Item{
			{Src: "a", Dst: "b", Weight: 3},
			{Src: "b", Dst: "c", Weight: 1},
		})
		if w, ok := sk.EdgeWeight("a", "b"); !ok || w != 5 {
			t.Fatalf("%s: edge = %d,%v want 5", backend, w, ok)
		}
		succ := sk.Successors("a")
		if len(succ) != 1 || succ[0] != "b" {
			t.Fatalf("%s: successors = %v", backend, succ)
		}
		prec := sk.Precursors("c")
		if len(prec) != 1 || prec[0] != "b" {
			t.Fatalf("%s: precursors = %v", backend, prec)
		}
		if n := len(sk.Nodes()); n != 3 {
			t.Fatalf("%s: %d nodes, want 3", backend, n)
		}
		if st := sk.Stats(); st.Items != 3 {
			t.Fatalf("%s: items = %d, want 3", backend, st.Items)
		}
		if heavy := sk.HeavyEdges(5); len(heavy) != 1 || heavy[0].Weight != 5 {
			t.Fatalf("%s: heavy = %+v", backend, heavy)
		}
	}
}

func TestFactoryRejectsUnknownBackend(t *testing.T) {
	if _, err := New("raft", testCfg, Options{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := New(BackendSharded, gss.Config{}, testOpts); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestSketchAsQuerySummary pins the interface relationship the server
// relies on: any Sketch serves the compound query algorithms.
func TestSketchAsQuerySummary(t *testing.T) {
	sk, err := New(BackendSharded, testCfg, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	sk.InsertBatch([]stream.Item{
		{Src: "a", Dst: "b", Weight: 1},
		{Src: "b", Dst: "c", Weight: 2},
	})
	var s query.Summary = sk
	if !query.Reachable(s, "a", "c") {
		t.Fatal("a->c should be reachable")
	}
	if out := query.NodeOut(s, "b"); out != 2 {
		t.Fatalf("NodeOut(b) = %d, want 2", out)
	}
}

func TestSnapshotRestoreAllBackends(t *testing.T) {
	items := stream.Generate(stream.DatasetConfig{Name: "snap", Nodes: 100, Edges: 1000,
		DegreeSkew: 1.4, WeightSkew: 1.2, MaxWeight: 50, Seed: 9})
	for _, backend := range Backends() {
		src, err := New(backend, testCfg, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		src.InsertBatch(items)
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			t.Fatalf("%s: snapshot: %v", backend, err)
		}
		dst, err := New(backend, testCfg, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: restore: %v", backend, err)
		}
		if a, b := src.Stats(), dst.Stats(); a != b {
			t.Fatalf("%s: stats diverge after restore: %+v vs %+v", backend, a, b)
		}
		for _, it := range items[:200] {
			wa, oka := src.EdgeWeight(it.Src, it.Dst)
			wb, okb := dst.EdgeWeight(it.Src, it.Dst)
			if wa != wb || oka != okb {
				t.Fatalf("%s: edge (%s,%s) diverges after restore", backend, it.Src, it.Dst)
			}
		}
		if err := dst.Restore(bytes.NewReader([]byte("garbage"))); err == nil {
			t.Fatalf("%s: garbage restore accepted", backend)
		}
	}
}

func TestBackendsAgreeOnWeights(t *testing.T) {
	items := stream.Generate(stream.DatasetConfig{Name: "agree", Nodes: 200, Edges: 3000,
		DegreeSkew: 1.5, WeightSkew: 1.3, MaxWeight: 100, Seed: 11})
	// Oversized so nothing falls to the buffer: with no collisions and
	// no left-overs, every backend must report identical exact weights.
	cfg := gss.Config{Width: 128, FingerprintBits: 16, Rooms: 4, SeqLen: 8, Candidates: 8}
	sketches := map[string]Sketch{}
	for _, backend := range Backends() {
		sk, err := New(backend, cfg, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		sk.InsertBatch(items)
		sketches[backend] = sk
	}
	for _, it := range items {
		w0, _ := sketches[BackendConcurrent].EdgeWeight(it.Src, it.Dst)
		for name, sk := range sketches {
			if w, ok := sk.EdgeWeight(it.Src, it.Dst); !ok || w != w0 {
				t.Fatalf("%s: edge (%s,%s) = %d,%v; concurrent says %d",
					name, it.Src, it.Dst, w, ok, w0)
			}
		}
	}
}
