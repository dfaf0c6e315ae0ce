package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/gss"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Cluster mode: stand up N real gss-server members plus the router in
// front of them (httptest-backed, all in-process), push one NDJSON
// stream through the router with concurrent ingesters, and measure
// sustained items/sec at 1, 2 and 4 members, plus /reachable latency
// through the scatter-gather BFS at each size.
//
// In-process members share this machine's CPU, so raw member-count
// scaling cannot appear on a small host: partitioning CPU-bound work
// across processes on the same cores is a wash by construction. What
// production scale-out actually adds per member is a NODE — its own
// CPU and its own matrix budget. The bench therefore models each
// member as a node of finite ingest capacity (MemberCapMBps, a
// byte-rate throttle on the member's /ingest body — the only simulated
// ingredient, everything else is the real server and router code) and
// shows (a) routed throughput scaling with member count until the
// router itself saturates, and (b) the occ/buf columns: the same
// stream that drowns one member's matrix spreads thin across four.
// Uncapped rows (MemberCapMBps=0) measure the shared-CPU ceiling and
// the router's own overhead against a direct, router-less member.
type clusterBenchOptions struct {
	Ingesters     int     // concurrent client goroutines
	Items         int     // items per measurement
	Batch         int     // router + member decode batch size
	ReqItems      int     // items per bulk HTTP request
	Width         int     // member sketch matrix width
	Nodes         int     // synthetic graph node count
	ReachQueries  int     // reachability probes per member count
	MemberCapMBps float64 // simulated per-member ingest capacity (MB/s); 0 = uncapped
}

type clusterResult struct {
	members int
	items   int
	elapsed time.Duration
	reach   time.Duration // avg /reachable latency
	occ     float64       // most-loaded member's matrix occupancy
	bufPct  float64       // most-loaded member's buffer spill share
}

func (r clusterResult) rate() float64 { return float64(r.items) / r.elapsed.Seconds() }

func runClusterBench(opt clusterBenchOptions, w io.Writer) error {
	if opt.Ingesters < 1 {
		opt.Ingesters = 4
	}
	if opt.Items < 1 {
		opt.Items = 200000
	}
	if opt.Batch < 1 {
		opt.Batch = 1000
	}
	if opt.ReqItems < opt.Batch {
		opt.ReqItems = 10 * opt.Batch
	}
	if opt.Width < 1 {
		opt.Width = 512
	}
	if opt.Nodes < 1 {
		opt.Nodes = 20000
	}
	if opt.ReachQueries < 1 {
		opt.ReachQueries = 200
	}
	if opt.MemberCapMBps < 0 {
		opt.MemberCapMBps = 0
	}

	// The stream is distinct-edge-heavy (high uniform mix): scale-out
	// exists to carry an edge set no single node's matrix budget holds,
	// so the bench stream must actually stress that budget rather than
	// hammer a few hot Zipf edges that any one member could absorb.
	items := stream.Generate(stream.DatasetConfig{Name: "cluster-bench",
		Nodes: opt.Nodes, Edges: opt.Items, DegreeSkew: 1.2, WeightSkew: 1.2,
		MaxWeight: 1000, UniformMix: 0.9, Seed: 42})
	capNote := "uncapped members (shared-CPU ceiling)"
	if opt.MemberCapMBps > 0 {
		capNote = fmt.Sprintf("member capacity %.1f MB/s each (simulated node limit)", opt.MemberCapMBps)
	}
	fmt.Fprintf(w, "cluster throughput: %d ingesters, batch=%d, req=%d items, width=%d per member, %s\n",
		opt.Ingesters, opt.Batch, opt.ReqItems, opt.Width, capNote)

	// Rounds, not per-config reps: the member counts are measured
	// back-to-back inside one round so a load spike on the host skews a
	// whole round rather than one configuration, and the reported round
	// is the one that ran with the least interference (highest aggregate
	// throughput). Per-config best-of would let different configurations
	// sample different host weather and fabricate a scaling ratio.
	const rounds = 3
	memberCounts := []int{1, 2, 4}
	var results []clusterResult
	var bestSum float64
	for r := 0; r < rounds; r++ {
		var round []clusterResult
		var sum float64
		for _, n := range memberCounts {
			res, err := clusterBenchOne(n, opt, items, true)
			if err != nil {
				return fmt.Errorf("%d members: %w", n, err)
			}
			round = append(round, res)
			sum += res.rate()
		}
		if r == 0 || sum > bestSum {
			results, bestSum = round, sum
		}
	}

	// The occ/buf columns explain where the scaling comes from: each
	// member is an identically provisioned node, so partitioning the
	// edge set across more members keeps every matrix inside its budget
	// (low occupancy, no buffer spill) while a single node saturates.
	// On multi-core hosts the members' insert CPU parallelizes on top.
	base := results[0].rate()
	fmt.Fprintf(w, "\n%-8s %10s %12s %10s %14s %8s %8s\n",
		"members", "items", "items/sec", "speedup", "reachable avg", "occ", "buf")
	for _, r := range results {
		fmt.Fprintf(w, "%-8d %10d %12.0f %9.2fx %14s %7.1f%% %7.1f%%\n",
			r.members, r.items, r.rate(), r.rate()/base,
			r.reach.Round(time.Microsecond), 100*r.occ, 100*r.bufPct)
		members := fmt.Sprintf("%d", r.members)
		record("cluster_throughput", r.rate(), "items/sec", "members", members)
		record("cluster_reachable_latency", r.reach.Seconds(), "seconds", "members", members)
		record("cluster_occupancy", r.occ, "fraction", "members", members)
	}

	// Router overhead: the same single member driven directly (no
	// router, no cap) versus through the router — the difference is the
	// routing scan plus the extra hop, i.e. the serial share the router
	// adds to every deployment.
	uncapped := opt
	uncapped.MemberCapMBps = 0
	direct, err := clusterBenchOne(1, uncapped, items, false)
	if err != nil {
		return fmt.Errorf("direct baseline: %w", err)
	}
	routed, err := clusterBenchOne(1, uncapped, items, true)
	if err != nil {
		return fmt.Errorf("routed baseline: %w", err)
	}
	fmt.Fprintf(w, "\nrouter overhead (uncapped, 1 member): direct %.0f items/s vs routed %.0f items/s (%.0f%% of direct)\n",
		direct.rate(), routed.rate(), 100*routed.rate()/direct.rate())
	record("cluster_direct_throughput", direct.rate(), "items/sec")
	record("cluster_routed_throughput", routed.rate(), "items/sec")
	return nil
}

// byteLimiter paces bytes at a fixed rate, SHARED across all of one
// member's connections — the cap models the node, not the socket, so
// concurrent ingest streams must split it rather than multiply it.
type byteLimiter struct {
	mu   sync.Mutex
	bps  float64
	next time.Time // when the next byte may pass
}

func (l *byteLimiter) wait(n int) {
	l.mu.Lock()
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	sleepUntil := l.next
	l.next = l.next.Add(time.Duration(float64(n) / l.bps * float64(time.Second)))
	l.mu.Unlock()
	time.Sleep(time.Until(sleepUntil))
}

// throttledBody applies the member's shared limiter to one /ingest
// request body.
type throttledBody struct {
	r   io.ReadCloser
	lim *byteLimiter
}

func (t *throttledBody) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.lim.wait(n)
	}
	return n, err
}

func (t *throttledBody) Close() error { return t.r.Close() }

// capMember wraps a member handler with the simulated capacity limit.
func capMember(h http.Handler, mbps float64) http.Handler {
	if mbps <= 0 {
		return h
	}
	lim := &byteLimiter{bps: mbps * 1e6}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/ingest" {
			r.Body = &throttledBody{r: r.Body, lim: lim}
		}
		h.ServeHTTP(w, r)
	})
}

// clusterBenchOne measures one configuration: n members behind the
// router (routed=true) or a single bare member (routed=false, the
// direct baseline — n must be 1).
func clusterBenchOne(n int, opt clusterBenchOptions, items []stream.Item, routed bool) (clusterResult, error) {
	// Collect the previous run's sketches and request bodies first so
	// their GC debt is not billed to this measurement.
	runtime.GC()
	cfg := gss.Config{Width: opt.Width, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	silent := func(string, ...interface{}) {}
	var memberURLs []string
	for i := 0; i < n; i++ {
		srv, err := server.NewWithOptions(cfg, server.Options{
			Backend: sketch.BackendConcurrent, BatchSize: opt.Batch, Logf: silent})
		if err != nil {
			return clusterResult{}, err
		}
		defer srv.Close()
		ts := httptest.NewServer(capMember(srv.Handler(), opt.MemberCapMBps))
		defer ts.Close()
		memberURLs = append(memberURLs, ts.URL)
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 4 * (opt.Ingesters + n), MaxIdleConnsPerHost: 2 * (opt.Ingesters + n)}}
	defer client.CloseIdleConnections()
	frontURL := memberURLs[0]
	if routed {
		rt, err := cluster.New(cluster.Config{Members: memberURLs,
			BatchSize: opt.Batch, Client: client, Logf: silent})
		if err != nil {
			return clusterResult{}, err
		}
		defer rt.Close()
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		frontURL = ts.URL
	}

	// Pre-render NDJSON request bodies outside the timed section.
	bodies := make([][][]byte, opt.Ingesters)
	per := (len(items) + opt.Ingesters - 1) / opt.Ingesters
	for g := 0; g < opt.Ingesters; g++ {
		lo, hi := g*per, (g+1)*per
		if hi > len(items) {
			hi = len(items)
		}
		if lo >= hi {
			continue
		}
		chunk := items[lo:hi]
		for off := 0; off < len(chunk); off += opt.ReqItems {
			end := off + opt.ReqItems
			if end > len(chunk) {
				end = len(chunk)
			}
			var buf bytes.Buffer
			if err := stream.EncodeNDJSON(&buf, chunk[off:end]); err != nil {
				return clusterResult{}, err
			}
			bodies[g] = append(bodies[g], buf.Bytes())
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, opt.Ingesters)
	start := time.Now()
	for g := 0; g < opt.Ingesters; g++ {
		wg.Add(1)
		go func(reqs [][]byte) {
			defer wg.Done()
			for _, body := range reqs {
				resp, err := client.Post(frontURL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
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
		return clusterResult{}, err
	default:
	}

	// Cross-check: the cluster-wide /stats must account for every item.
	var st gss.Stats
	if err := getStats(client, frontURL+"/stats", &st); err != nil {
		return clusterResult{}, err
	}
	if st.Items != int64(len(items)) {
		return clusterResult{}, fmt.Errorf("cluster holds %d items, want %d", st.Items, len(items))
	}
	// Per-member load: the most loaded member's occupancy and buffer
	// spill tell whether the run was inside or past the matrix budget.
	var occ, bufPct float64
	for _, mu := range memberURLs {
		var ms gss.Stats
		if err := getStats(client, mu+"/stats", &ms); err != nil {
			return clusterResult{}, err
		}
		if ms.Occupancy > occ {
			occ = ms.Occupancy
		}
		if ms.BufferPct > bufPct {
			bufPct = ms.BufferPct
		}
	}

	// Reachability latency through the multi-round fan-out, probed on
	// stream edges (reachable within one BFS round): this measures the
	// per-round scatter cost — owner lookup plus one member round-trip
	// per frontier node — rather than the size of the graph, which is
	// what a negative probe's full walk would mostly measure.
	rnd := rand.New(rand.NewSource(7))
	reachStart := time.Now()
	for i := 0; i < opt.ReachQueries; i++ {
		it := items[rnd.Intn(len(items))]
		resp, err := client.Get(frontURL + "/reachable?src=" + it.Src + "&dst=" + it.Dst)
		if err != nil {
			return clusterResult{}, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	reach := time.Since(reachStart) / time.Duration(opt.ReachQueries)

	return clusterResult{members: n, items: len(items), elapsed: elapsed,
		reach: reach, occ: occ, bufPct: bufPct}, nil
}

func getStats(client *http.Client, url string, st *gss.Stats) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(st)
}
