package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gss"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func newIngestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewWithOptions(
		gss.Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func ndjson(t *testing.T, items []stream.Item) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.EncodeNDJSON(&buf, items); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestIngestEndToEnd is the full bulk path: NDJSON upload through the
// sharded backend, then every query endpoint agrees with ground truth.
func TestIngestEndToEnd(t *testing.T) {
	_, ts := newIngestServer(t, Options{Backend: sketch.BackendSharded, Shards: 4, BatchSize: 64})
	items := stream.Generate(stream.DatasetConfig{Name: "e2e", Nodes: 100, Edges: 2000,
		DegreeSkew: 1.4, WeightSkew: 1.2, MaxWeight: 50, Seed: 5})

	resp := post(t, ts.URL+"/ingest", ndjson(t, items).String())
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, b)
	}
	var ack struct {
		Mode     string `json:"mode"`
		Ingested int64  `json:"ingested"`
		Batches  int64  `json:"batches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Mode != "sync" || ack.Ingested != int64(len(items)) {
		t.Fatalf("ack = %+v, want %d items", ack, len(items))
	}
	if want := int64((len(items) + 63) / 64); ack.Batches != want {
		t.Fatalf("batches = %d, want %d", ack.Batches, want)
	}

	// Ground-truth totals per edge.
	truth := map[[2]string]int64{}
	for _, it := range items {
		truth[[2]string{it.Src, it.Dst}] += it.Weight
	}
	var edge struct {
		Weight int64 `json:"weight"`
		Found  bool  `json:"found"`
	}
	for k, want := range truth {
		getJSON(t, fmt.Sprintf("%s/edge?src=%s&dst=%s", ts.URL, k[0], k[1]), &edge)
		if !edge.Found || edge.Weight < want {
			t.Fatalf("edge %v = %+v, want >= %d", k, edge, want)
		}
	}
	var st gss.Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Items != int64(len(items)) {
		t.Fatalf("stats items = %d, want %d", st.Items, len(items))
	}
}

func TestIngestBatchParamAndErrors(t *testing.T) {
	_, ts := newIngestServer(t, Options{})
	// Per-request batch override shows up in the batch count.
	items := make([]stream.Item, 10)
	for i := range items {
		items[i] = stream.Item{Src: "a", Dst: stream.NodeID(i), Weight: 1}
	}
	resp := post(t, ts.URL+"/ingest?batch=3", ndjson(t, items).String())
	var ack struct {
		Batches int64 `json:"batches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Batches != 4 { // 3+3+3+1
		t.Fatalf("batches = %d, want 4", ack.Batches)
	}

	for _, bad := range []string{"/ingest?batch=0", "/ingest?batch=abc",
		"/ingest?batch=999999999", "/ingest?async=maybe"} {
		resp := post(t, ts.URL+bad, `{"src":"a","dst":"b"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// GET is not allowed.
	resp2, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status %d", resp2.StatusCode)
	}
	// A bad line mid-stream: 400 naming the line, earlier items kept.
	resp3 := post(t, ts.URL+"/ingest", "{\"src\":\"x\",\"dst\":\"y\"}\nnope\n")
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "line 2") {
		t.Fatalf("mid-stream error: status %d body %s", resp3.StatusCode, body)
	}
	var edge struct {
		Found bool `json:"found"`
	}
	getJSON(t, ts.URL+"/edge?src=x&dst=y", &edge)
	if !edge.Found {
		t.Fatal("items before the bad line were not ingested")
	}
}

// blockingSketch wraps a Sketch, parking every InsertHashedBatch (the
// server's one write entry) until released — a deterministic stand-in
// for slow ingestion so the async queue can be filled at will.
type blockingSketch struct {
	sketch.Sketch
	entered chan struct{} // signaled when a worker enters InsertHashedBatch
	release chan struct{} // closed to let workers proceed
}

func (b *blockingSketch) InsertHashedBatch(items []stream.HashedItem) {
	b.entered <- struct{}{}
	<-b.release
	b.Sketch.InsertHashedBatch(items)
}

func TestIngestAsyncBackpressure429(t *testing.T) {
	inner, err := sketch.New(sketch.BackendConcurrent,
		gss.Config{Width: 32, SeqLen: 4, Candidates: 4}, sketch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocking := &blockingSketch{Sketch: inner,
		entered: make(chan struct{}, 16), release: make(chan struct{})}
	// One worker, queue capacity 1: the worker parks on the first
	// batch, the second batch fills the queue, the third must get 429.
	s := NewFromSketch(blocking, Options{QueueDepth: 1, Workers: 1, BatchSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postBatch := func(src string) *http.Response {
		items := []stream.Item{{Src: src, Dst: "d", Weight: 1}}
		return post(t, ts.URL+"/ingest?async=1", ndjson(t, items).String())
	}

	resp1 := postBatch("a")
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first async ingest status %d, want 202", resp1.StatusCode)
	}
	<-blocking.entered // worker is now parked inside InsertHashedBatch

	resp2 := postBatch("b") // sits in the queue
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second async ingest status %d, want 202", resp2.StatusCode)
	}

	resp3 := postBatch("c") // queue full -> backpressure
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third async ingest status %d, want 429 (body %s)", resp3.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp3.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want integer seconds >= 1", resp3.Header.Get("Retry-After"))
	}
	var rej struct {
		Error   string `json:"error"`
		Dropped int64  `json:"dropped"`
	}
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Error == "" || rej.Dropped != 1 {
		t.Fatalf("429 body = %+v", rej)
	}

	var st IngestStats
	getJSON(t, ts.URL+"/ingest/stats", &st)
	if st.DroppedBatches != 1 || st.DroppedItems != 1 || st.EnqueuedItems != 2 {
		t.Fatalf("ingest stats = %+v", st)
	}
	if st.QueueCapacity != 1 || st.Workers != 1 {
		t.Fatalf("ingest config stats = %+v", st)
	}

	// Release the workers; both accepted batches must land.
	close(blocking.release)
	drainEntered(blocking.entered)
	s.Close()
	if got := s.Sketch().Stats().Items; got != 2 {
		t.Fatalf("items after drain = %d, want 2", got)
	}
	getJSON(t, ts.URL+"/ingest/stats", &st)
	if st.ProcessedItems != 2 || st.PendingItems != 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}
}

func drainEntered(ch chan struct{}) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// TestIngestAsyncDrains checks the happy async path: 202 on accept,
// and the queue drains into queryable state.
func TestIngestAsyncDrains(t *testing.T) {
	s, ts := newIngestServer(t, Options{Backend: sketch.BackendSharded, Shards: 4,
		BatchSize: 32, QueueDepth: 16, Workers: 2})
	items := stream.Generate(stream.DatasetConfig{Name: "async", Nodes: 50, Edges: 500,
		DegreeSkew: 1.3, WeightSkew: 1.1, MaxWeight: 20, Seed: 8})
	resp := post(t, ts.URL+"/ingest?async=1", ndjson(t, items).String())
	var ack struct {
		Mode     string `json:"mode"`
		Enqueued int64  `json:"enqueued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.Mode != "async" || ack.Enqueued != int64(len(items)) {
		t.Fatalf("async ack: status %d body %+v", resp.StatusCode, ack)
	}
	// Wait for the pipeline to drain (bounded).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Sketch().Stats().Items == int64(len(items)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not drain: %d/%d items", s.Sketch().Stats().Items, len(items))
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st IngestStats
	getJSON(t, ts.URL+"/ingest/stats", &st)
	if st.ProcessedItems != int64(len(items)) || st.DroppedItems != 0 {
		t.Fatalf("ingest stats = %+v", st)
	}
}

// TestIngestConcurrentBulkClients hammers /ingest from several
// goroutines against the sharded backend; totals must be exact.
func TestIngestConcurrentBulkClients(t *testing.T) {
	s, ts := newIngestServer(t, Options{Backend: sketch.BackendSharded, Shards: 8, BatchSize: 50})
	const clients = 4
	items := stream.Generate(stream.DatasetConfig{Name: "conc", Nodes: 200, Edges: 4000,
		DegreeSkew: 1.5, WeightSkew: 1.2, MaxWeight: 30, Seed: 13})
	per := len(items) / clients
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		chunk := items[c*per : (c+1)*per]
		wg.Add(1)
		go func(chunk []stream.Item) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := stream.EncodeNDJSON(&buf, chunk); err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", &buf)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}(chunk)
	}
	wg.Wait()
	if got := s.Sketch().Stats().Items; got != int64(per*clients) {
		t.Fatalf("items = %d, want %d", got, per*clients)
	}
}

func TestBackendSelector(t *testing.T) {
	for _, backend := range sketch.Backends() {
		_, ts := newIngestServer(t, Options{Backend: backend, Shards: 2})
		resp := post(t, ts.URL+"/insert", `{"src":"a","dst":"b","weight":5}`)
		resp.Body.Close()
		var edge struct {
			Weight int64 `json:"weight"`
			Found  bool  `json:"found"`
		}
		getJSON(t, ts.URL+"/edge?src=a&dst=b", &edge)
		if !edge.Found || edge.Weight != 5 {
			t.Fatalf("%s: edge = %+v", backend, edge)
		}
	}
	if _, err := NewWithOptions(gss.Config{Width: 32, SeqLen: 4, Candidates: 4},
		Options{Backend: "bogus"}); err == nil {
		t.Fatal("bogus backend accepted")
	}
}

// TestInsertDefaultWeight pins /insert and /ingest to the same
// convention: an omitted weight is one observation.
func TestInsertDefaultWeight(t *testing.T) {
	_, ts := newIngestServer(t, Options{})
	post(t, ts.URL+"/insert", `{"src":"a","dst":"b"}`).Body.Close()
	post(t, ts.URL+"/insert", `[{"src":"a","dst":"b"},{"src":"a","dst":"b","weight":0}]`).Body.Close()
	var edge struct {
		Weight int64 `json:"weight"`
		Found  bool  `json:"found"`
	}
	getJSON(t, ts.URL+"/edge?src=a&dst=b", &edge)
	if !edge.Found || edge.Weight != 2 { // 1 + 1 + explicit 0
		t.Fatalf("edge = %+v, want weight 2", edge)
	}
}

func TestNodesEndpoint(t *testing.T) {
	_, ts := newIngestServer(t, Options{})
	post(t, ts.URL+"/insert", `{"src":"a","dst":"b","weight":1}`).Body.Close()
	var nodes struct {
		Nodes []string `json:"nodes"`
	}
	getJSON(t, ts.URL+"/nodes", &nodes)
	if len(nodes.Nodes) != 2 {
		t.Fatalf("nodes = %v", nodes.Nodes)
	}
}

// drainEstimateSecs turns the pipeline's observed apply cost into the
// Retry-After hint; the table pins the estimate's shape — fallback
// before any observation, round-up, per-worker division, and the
// [1, 30] clamp.
func TestDrainEstimateSecs(t *testing.T) {
	sec := int64(time.Second)
	cases := []struct {
		name    string
		depth   int
		batches int64
		nanos   int64
		workers int
		want    int
	}{
		{"no observations yet", 8, 0, 0, 2, 1},
		{"fast drain rounds up to one second", 4, 100, 100 * int64(time.Millisecond), 2, 1},
		{"one worker at one second per batch", 3, 10, 10 * sec, 1, 4},
		{"two workers halve the estimate", 3, 10, 10 * sec, 2, 2},
		{"deep backlog clamps at 30s", 1000, 1, 2 * sec, 1, 30},
		{"zero workers falls back", 8, 10, 10 * sec, 0, 1},
	}
	for _, tc := range cases {
		if got := drainEstimateSecs(tc.depth, tc.batches, tc.nanos, tc.workers); got != tc.want {
			t.Errorf("%s: drainEstimateSecs(%d, %d, %d, %d) = %d, want %d",
				tc.name, tc.depth, tc.batches, tc.nanos, tc.workers, got, tc.want)
		}
	}
}

// The Retry-After a live 429 carries must track the backlog: with one
// parked worker whose only completed batch took a measurable time, the
// estimate is the observed cost times the queued batches.
func TestRetryAfterTracksDrainState(t *testing.T) {
	p := newPipeline(func(ingestJob) {}, 4, 2)
	defer p.close()
	if got := p.retryAfterSecs(); got != 1 {
		t.Fatalf("retryAfterSecs with no history = %d, want fallback 1", got)
	}
	// Simulate history: 2 batches took 6s total -> avg 3s; empty queue
	// means one in-flight slot over 2 workers -> ceil(3s/2) = 2.
	p.processedBatches.Store(2)
	p.applyNanos.Store(6 * int64(time.Second))
	if got := p.retryAfterSecs(); got != 2 {
		t.Fatalf("retryAfterSecs with 3s avg, empty queue, 2 workers = %d, want 2", got)
	}
}
