package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/gss"
	"repro/internal/server"
	"repro/internal/stream"
)

// Server-ingest throughput mode: stand up the real HTTP server once
// per backend, drive it with N concurrent ingester goroutines, and
// report sustained items/sec. Two wire paths are measured:
//
//   - item: one POST /insert per item — the pre-pipeline deployment,
//     every item pays one HTTP request and one global lock acquisition.
//   - bulk: POST /ingest with NDJSON, decoded and inserted in batches —
//     the pipeline path, locks amortized over whole batches.
//
// The concurrent/item row is the baseline the sharded/bulk speedup is
// quoted against.
//
// A second table compares the two bulk ingest planes — NDJSON versus
// the GSB1 binary batch format, where the producer hashes each
// identifier once and the server inserts straight from the carried
// hashes. Both planes are measured back-to-back within a round
// (the cluster bench's round discipline) so the quoted ratio is a
// same-weather comparison, and the reported round is the one with the
// highest combined throughput.
type ingestOptions struct {
	Ingesters int     // concurrent client goroutines
	Items     int     // items per bulk measurement
	ItemItems int     // items per per-item measurement (slower path)
	Batch     int     // server-side decode batch size
	ReqItems  int     // items per bulk HTTP request
	Shards    int     // shard count for the sharded backend
	Width     int     // sketch matrix width
	Nodes     int     // synthetic graph node count
	Scale     float64 // unused in ingest mode; kept for symmetry
}

type ingestResult struct {
	backend, path string
	items         int
	elapsed       time.Duration
}

func (r ingestResult) rate() float64 { return float64(r.items) / r.elapsed.Seconds() }

func runIngestBench(opt ingestOptions, w io.Writer) error {
	if opt.Ingesters < 1 {
		opt.Ingesters = 4
	}
	if opt.Items < 1 {
		opt.Items = 200000
	}
	if opt.ItemItems < 1 {
		opt.ItemItems = opt.Items / 10
		if opt.ItemItems > 20000 {
			opt.ItemItems = 20000
		}
	}
	if opt.Batch < 1 {
		opt.Batch = 1000
	}
	if opt.ReqItems < opt.Batch {
		opt.ReqItems = 10 * opt.Batch
	}
	if opt.Shards < 1 {
		opt.Shards = 16
	}
	if opt.Width < 1 {
		opt.Width = 512
	}
	if opt.Nodes < 1 {
		opt.Nodes = 20000
	}

	items := stream.Generate(stream.DatasetConfig{Name: "ingest-bench",
		Nodes: opt.Nodes, Edges: opt.Items, DegreeSkew: 1.5, WeightSkew: 1.2,
		MaxWeight: 1000, Seed: 42})
	fmt.Fprintf(w, "server-ingest throughput: %d ingesters, batch=%d, req=%d items, width=%d, shards=%d\n",
		opt.Ingesters, opt.Batch, opt.ReqItems, opt.Width, opt.Shards)

	cfg := gss.Config{Width: opt.Width, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	runs := []struct{ backend, path string }{
		{"concurrent", "item"},
		{"concurrent", "bulk"},
		{"sharded", "bulk"},
	}
	var results []ingestResult
	for _, run := range runs {
		res, err := benchOne(run.backend, run.path, cfg, opt, items)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", run.backend, run.path, err)
		}
		results = append(results, res)
	}

	base := results[0].rate()
	fmt.Fprintf(w, "\n%-12s %-6s %10s %12s %10s\n", "backend", "path", "items", "items/sec", "speedup")
	for _, r := range results {
		fmt.Fprintf(w, "%-12s %-6s %10d %12.0f %9.2fx\n",
			r.backend, r.path, r.items, r.rate(), r.rate()/base)
		record("ingest_throughput", r.rate(), "items/sec",
			"backend", r.backend, "path", r.path)
	}

	// Plane comparison: same stream, same server configuration, NDJSON
	// versus GSB1 binary. The planes are interleaved inside one round so
	// a host load spike skews a whole round, not one plane, and the
	// round with the highest combined throughput is the one reported —
	// per-plane best-of would let the two planes sample different host
	// weather and fabricate a ratio.
	const rounds = 3
	planeBackends := []string{"concurrent", "sharded"}
	type planePair struct{ nd, bin ingestResult }
	best := make(map[string]planePair)
	for r := 0; r < rounds; r++ {
		for _, backend := range planeBackends {
			nd, err := benchOne(backend, "bulk", cfg, opt, items)
			if err != nil {
				return fmt.Errorf("%s/ndjson round %d: %w", backend, r, err)
			}
			bin, err := benchOne(backend, "binary", cfg, opt, items)
			if err != nil {
				return fmt.Errorf("%s/binary round %d: %w", backend, r, err)
			}
			cur, ok := best[backend]
			if !ok || nd.rate()+bin.rate() > cur.nd.rate()+cur.bin.rate() {
				best[backend] = planePair{nd: nd, bin: bin}
			}
		}
	}
	fmt.Fprintf(w, "\ningest planes: NDJSON vs GSB1 binary (interleaved, best of %d rounds)\n", rounds)
	fmt.Fprintf(w, "%-12s %14s %14s %8s\n", "backend", "ndjson/sec", "binary/sec", "ratio")
	for _, backend := range planeBackends {
		p := best[backend]
		fmt.Fprintf(w, "%-12s %14.0f %14.0f %7.2fx\n",
			backend, p.nd.rate(), p.bin.rate(), p.bin.rate()/p.nd.rate())
		record("ingest_plane_throughput", p.nd.rate(), "items/sec",
			"backend", backend, "plane", "ndjson")
		record("ingest_plane_throughput", p.bin.rate(), "items/sec",
			"backend", backend, "plane", "binary")
	}
	return nil
}

func benchOne(backend, path string, cfg gss.Config, opt ingestOptions, items []stream.Item) (ingestResult, error) {
	srv, err := server.NewWithOptions(cfg, server.Options{
		Backend: backend, Shards: opt.Shards, BatchSize: opt.Batch})
	if err != nil {
		return ingestResult{}, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: opt.Ingesters * 2, MaxIdleConnsPerHost: opt.Ingesters * 2}}
	defer client.CloseIdleConnections()

	n := len(items)
	if path == "item" {
		n = opt.ItemItems
	}
	work := items[:n]

	// Pre-render request bodies outside the timed section so the
	// measurement is server ingest, not client-side encoding.
	bodies := make([][][]byte, opt.Ingesters) // per ingester, per request
	per := (n + opt.Ingesters - 1) / opt.Ingesters
	for g := 0; g < opt.Ingesters; g++ {
		lo, hi := g*per, (g+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		chunk := work[lo:hi]
		if path == "item" {
			for _, it := range chunk {
				bodies[g] = append(bodies[g], []byte(fmt.Sprintf(
					`{"src":%q,"dst":%q,"weight":%d}`, it.Src, it.Dst, it.Weight)))
			}
			continue
		}
		for off := 0; off < len(chunk); off += opt.ReqItems {
			end := off + opt.ReqItems
			if end > len(chunk) {
				end = len(chunk)
			}
			var buf bytes.Buffer
			if path == "binary" {
				// Pre-hashing here is the plane's contract, not a benchmark
				// cheat: the producer hashes once at the edge, untimed for
				// the server measurement. One frame per server decode batch
				// keeps the insert granularity identical across planes.
				bw := stream.NewBinaryBatchWriter(&buf)
				for o := off; o < end; o += opt.Batch {
					e := o + opt.Batch
					if e > end {
						e = end
					}
					if err := bw.WriteItems(chunk[o:e]); err != nil {
						return ingestResult{}, err
					}
				}
				if err := bw.Flush(); err != nil {
					return ingestResult{}, err
				}
			} else if err := stream.EncodeNDJSON(&buf, chunk[off:end]); err != nil {
				return ingestResult{}, err
			}
			bodies[g] = append(bodies[g], buf.Bytes())
		}
	}

	url := ts.URL + "/ingest"
	contentType := "application/x-ndjson"
	if path == "binary" {
		contentType = stream.ContentTypeBinary
	}
	if path == "item" {
		url = ts.URL + "/insert"
	}
	var wg sync.WaitGroup
	errs := make(chan error, opt.Ingesters)
	start := time.Now()
	for g := 0; g < opt.Ingesters; g++ {
		wg.Add(1)
		go func(reqs [][]byte) {
			defer wg.Done()
			for _, body := range reqs {
				resp, err := client.Post(url, contentType, bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(bodies[g])
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return ingestResult{}, err
	default:
	}
	if got := srv.Sketch().Stats().Items; got != int64(n) {
		return ingestResult{}, fmt.Errorf("ingested %d items, want %d", got, n)
	}
	return ingestResult{backend: backend, path: path, items: n, elapsed: elapsed}, nil
}
