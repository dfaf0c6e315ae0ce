package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gss"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// gsb1 encodes items as a GSB1 body, one frame per frameSize items —
// what gss-gen -format binary (or the cluster router) would post.
func gsb1(t *testing.T, items []stream.Item, frameSize int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	bw := stream.NewBinaryBatchWriter(&buf)
	for i := 0; i < len(items); i += frameSize {
		j := i + frameSize
		if j > len(items) {
			j = len(items)
		}
		if err := bw.WriteBatch(stream.HashItems(items[i:j], nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func postBinary(t *testing.T, url string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(url, stream.ContentTypeBinary, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestIngestContentTypeDispatch pins the /ingest content-type table:
// bare, NDJSON and JSON go to the text plane, the binary type to the
// frame decoder, and anything else is 415 — on both planes the known
// types keep working (the regression half of the satellite).
func TestIngestContentTypeDispatch(t *testing.T) {
	s, ts := newIngestServer(t, Options{})
	items := []stream.Item{{Src: "a", Dst: "b", Weight: 3, Time: 1}}

	for _, ct := range []string{"application/x-ndjson", "application/json; charset=utf-8", "",
		// curl --data-binary's default type: `curl --data-binary @-
		// /ingest` is the documented quickstart and stays on the text
		// plane.
		"application/x-www-form-urlencoded"} {
		resp, err := http.Post(ts.URL+"/ingest", ct, ndjson(t, items))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Content-Type %q: status %d, want 200", ct, resp.StatusCode)
		}
	}
	resp := postBinary(t, ts.URL+"/ingest", gsb1(t, items, 16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest status %d, want 200", resp.StatusCode)
	}

	for _, ct := range []string{"application/octet-stream", "text/csv", "application/x-protobuf"} {
		resp, err := http.Post(ts.URL+"/ingest", ct, bytes.NewReader([]byte("whatever")))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q: status %d, want 415 (%s)", ct, resp.StatusCode, body)
		}
	}
	// Rejected bodies must not have touched the sketch: 5 accepted posts.
	if got := s.Sketch().Stats().Items; got != 5 {
		t.Fatalf("items = %d, want 5", got)
	}
}

// TestIngestBinaryMatchesNDJSON is the end-to-end plane equivalence:
// the same stream posted once as NDJSON and once as GSB1 produces
// servers that agree on every edge, the node set and the item count.
func TestIngestBinaryMatchesNDJSON(t *testing.T) {
	items := stream.Generate(stream.DatasetConfig{Name: "bin-e2e", Nodes: 80, Edges: 1500,
		DegreeSkew: 1.4, WeightSkew: 1.2, MaxWeight: 40, Seed: 31})

	for _, backend := range sketch.Backends() {
		t.Run(backend, func(t *testing.T) {
			sa, tsA := newIngestServer(t, Options{Backend: backend, Shards: 4, BatchSize: 64})
			sb, tsB := newIngestServer(t, Options{Backend: backend, Shards: 4, BatchSize: 64})

			resp := post(t, tsA.URL+"/ingest", ndjson(t, items).String())
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ndjson status %d", resp.StatusCode)
			}
			resp = postBinary(t, tsB.URL+"/ingest", gsb1(t, items, 64))
			var ack struct {
				Ingested int64 `json:"ingested"`
				Batches  int64 `json:"batches"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || ack.Ingested != int64(len(items)) {
				t.Fatalf("binary ack: status %d %+v", resp.StatusCode, ack)
			}

			if a, b := sa.Sketch().Stats().Items, sb.Sketch().Stats().Items; a != b {
				t.Fatalf("item counts diverge: ndjson %d, binary %d", a, b)
			}
			truth := map[[2]string]bool{}
			for _, it := range items {
				truth[[2]string{it.Src, it.Dst}] = true
			}
			for k := range truth {
				wa, oka := sa.Sketch().EdgeWeight(k[0], k[1])
				wb, okb := sb.Sketch().EdgeWeight(k[0], k[1])
				if oka != okb || wa != wb {
					t.Fatalf("edge %v: ndjson (%d,%v) vs binary (%d,%v)", k, wa, oka, wb, okb)
				}
			}
		})
	}
}

// TestIngestBinaryAsync drains framed batches through the worker pool.
func TestIngestBinaryAsync(t *testing.T) {
	s, ts := newIngestServer(t, Options{Backend: sketch.BackendSharded, Shards: 4,
		QueueDepth: 64, Workers: 2})
	items := stream.Generate(stream.DatasetConfig{Name: "bin-async", Nodes: 40, Edges: 600,
		DegreeSkew: 1.3, WeightSkew: 1.1, MaxWeight: 20, Seed: 12})
	resp := postBinary(t, ts.URL+"/ingest?async=1", gsb1(t, items, 50))
	var ack struct {
		Mode     string `json:"mode"`
		Enqueued int64  `json:"enqueued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.Mode != "async" || ack.Enqueued != int64(len(items)) {
		t.Fatalf("async ack: status %d %+v", resp.StatusCode, ack)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Sketch().Stats().Items != int64(len(items)) {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not drain: %d/%d", s.Sketch().Stats().Items, len(items))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIngestBinaryBadFrame: a corrupted frame mid-body is rejected
// atomically with 400; whole frames before it are kept.
func TestIngestBinaryBadFrame(t *testing.T) {
	s, ts := newIngestServer(t, Options{})
	good := gsb1(t, []stream.Item{{Src: "x", Dst: "y", Weight: 1, Time: 1}}, 16).Bytes()
	body := append(append([]byte{}, good...), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // forged frame length
	resp := postBinary(t, ts.URL+"/ingest", bytes.NewReader(body))
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, b)
	}
	if w, ok := s.Sketch().EdgeWeight("x", "y"); !ok || w != 1 {
		t.Fatalf("frame before the bad one lost: (%d,%v)", w, ok)
	}
}

// TestIngestBinaryStampsArrival: binary items with Time 0 get the
// arrival stamp exactly like the NDJSON plane — the windowed backend
// depends on it.
func TestIngestBinaryStampsArrival(t *testing.T) {
	now := int64(777)
	s, err := NewWithOptions(
		gss.Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8},
		Options{Backend: sketch.BackendWindowed, WindowSpan: 1 << 20,
			Now: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	resp := postBinary(t, ts.URL+"/ingest",
		gsb1(t, []stream.Item{{Src: "a", Dst: "b", Weight: 2}}, 16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if w, ok := s.Sketch().EdgeWeight("a", "b"); !ok || w != 2 {
		t.Fatalf("stamped binary item lost: (%d,%v)", w, ok)
	}
}

// TestIngestBinaryLogsVerbatim: on a logging primary, binary frames
// reach the operation log through the decode-free AppendEncoded path,
// and /log serves records identical to what the NDJSON plane would
// have logged — timestamps, labels and all.
func TestIngestBinaryLogsVerbatim(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	opt := Options{LogDir: base + "/log", LogSyncEvery: -1, Logf: quiet(t)}
	s, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items := replicaItems(120)
	resp := postBinary(t, ts.URL+"/ingest", gsb1(t, items, 32))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest status %d", resp.StatusCode)
	}

	lresp, err := http.Get(ts.URL + "/log?from=0&max=200")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("/log status %d", lresp.StatusCode)
	}
	got, err := stream.ReadAll(lresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("/log served %d records, want %d", len(got), len(items))
	}
	for i := range got {
		if got[i] != items[i] {
			t.Fatalf("log record %d = %+v, want %+v", i, got[i], items[i])
		}
	}
}

// TestBinaryLogReplayExact: a logging primary fed only GSB1 bodies,
// closed without a checkpoint and reopened from its log, must snapshot
// byte-identical to before. Replay re-inserts the logged items on the
// string plane at its own batch boundaries, so this holds only because
// both planes insert in arrival order. The config is tight enough that
// any reordering would move edges between rooms.
func TestBinaryLogReplayExact(t *testing.T) {
	cfg := gss.Config{Width: 16, FingerprintBits: 8, Rooms: 2, SeqLen: 4, Candidates: 4}
	items := stream.Generate(stream.DatasetConfig{Name: "bin-replay", Nodes: 120, Edges: 3000,
		DegreeSkew: 1.4, WeightSkew: 1.2, MaxWeight: 40, Seed: 5})
	for i := range items {
		items[i].Time = 1 + int64(i) // windowed: rotate through a few generations
	}
	for _, backend := range sketch.Backends() {
		t.Run(backend, func(t *testing.T) {
			opt := Options{Backend: backend, Shards: 4, BatchSize: 64,
				WindowSpan: 4000, WindowGenerations: 4,
				LogDir: t.TempDir(), LogSyncEvery: -1, Logf: quiet(t)}
			s1, err := NewWithOptions(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1.Handler())
			for i := 0; i < len(items); i += 500 {
				resp := postBinary(t, ts1.URL+"/ingest", gsb1(t, items[i:min(i+500, len(items))], 37))
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("binary ingest status %d", resp.StatusCode)
				}
			}
			ts1.Close()
			var want bytes.Buffer
			if err := s1.Sketch().Snapshot(&want); err != nil {
				t.Fatal(err)
			}
			if st := s1.Sketch().Stats(); st.BufferEdges == 0 {
				t.Fatalf("config too roomy to exercise placement: %+v", st)
			}
			s1.Close()

			s2, err := NewWithOptions(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			var got bytes.Buffer
			if err := s2.Sketch().Snapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("replayed snapshot differs: %d bytes, want %d", got.Len(), want.Len())
			}
		})
	}
}
