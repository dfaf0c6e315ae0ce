package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gss"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Migrate mode: measure what a live membership change costs the
// workload that is running through it. Three log-backed members sit
// behind the router; concurrent ingesters push a continuous NDJSON
// stream while the bench adds a fourth member mid-load and then drains
// one of the originals, each via the admin endpoints the migration
// protocol serves. Reported per phase: sustained ingest rate before,
// during and after each change (the "during" dip is the protocol's
// whole-workload overhead — double-writes to moving keys, export
// bandwidth, catch-up relays), and the migration's own telemetry:
// total duration, handoff and cutover stalls (the only spans where
// writes block, i.e. the transient a latency SLO feels), and
// moved/forwarded/shadow volumes. A final
// cross-check demands the cluster's item count equal the acknowledged
// ingest total — a migration that loses or double-counts items under
// load fails the bench, not just the test suite.
type migrateBenchOptions struct {
	Ingesters int // concurrent client goroutines
	Items     int // distinct items in the replayed stream
	Batch     int // router + member decode batch size
	ReqItems  int // items per bulk HTTP request
	Width     int // member sketch matrix width
	Nodes     int // synthetic graph node count
}

// migratePhase is one measured slice of the timeline.
type migratePhase struct {
	name    string
	items   int64
	elapsed time.Duration
}

func (p migratePhase) rate() float64 { return float64(p.items) / p.elapsed.Seconds() }

func runMigrateBench(opt migrateBenchOptions, w io.Writer) error {
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
	// Steady-state slices long enough that one scheduler hiccup does not
	// masquerade as a migration dip.
	const settle = 1 * time.Second

	// Same distinct-edge-heavy mix as cluster mode: a migration moves a
	// partition's edge set, so the stream must populate real matrix
	// volume rather than a few hot edges that transfer for free.
	items := stream.Generate(stream.DatasetConfig{Name: "migrate-bench",
		Nodes: opt.Nodes, Edges: opt.Items, DegreeSkew: 1.2, WeightSkew: 1.2,
		MaxWeight: 1000, UniformMix: 0.9, Seed: 42})

	// Pre-render the request bodies once; ingesters replay the pool in a
	// loop so the stream never runs dry mid-migration.
	var bodies [][]byte
	for off := 0; off < len(items); off += opt.ReqItems {
		end := off + opt.ReqItems
		if end > len(items) {
			end = len(items)
		}
		var buf bytes.Buffer
		if err := stream.EncodeNDJSON(&buf, items[off:end]); err != nil {
			return err
		}
		bodies = append(bodies, buf.Bytes())
	}

	// Four log-backed members: migration's copy fence needs each loser's
	// operation log, so unlike cluster mode every member gets a LogDir
	// (default batched fsync — per-append sync would benchmark the disk,
	// not the migration). The fourth starts now but idles outside the
	// ring until the add.
	cfg := gss.Config{Width: opt.Width, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	silent := func(string, ...interface{}) {}
	var memberURLs []string
	for i := 0; i < 4; i++ {
		dir, err := os.MkdirTemp("", "gss-bench-migrate-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		srv, err := server.NewWithOptions(cfg, server.Options{
			Backend: sketch.BackendConcurrent, BatchSize: opt.Batch, Logf: silent,
			LogDir: dir})
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		memberURLs = append(memberURLs, ts.URL)
	}
	joiner, initial := memberURLs[3], memberURLs[:3]

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 4 * (opt.Ingesters + 4), MaxIdleConnsPerHost: 2 * (opt.Ingesters + 4)}}
	defer client.CloseIdleConnections()
	rt, err := cluster.New(cluster.Config{Members: initial, BatchSize: opt.Batch,
		Client: client, Logf: silent, AllowMembershipChanges: true})
	if err != nil {
		return err
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	fmt.Fprintf(w, "migration under load: %d ingesters, batch=%d, req=%d items, width=%d, 3 members + 1 joiner\n",
		opt.Ingesters, opt.Batch, opt.ReqItems, opt.Width)

	// The load: ingesters replay the body pool until told to stop,
	// counting only server-acknowledged items. Any non-200 mid-migration
	// is a bench failure — the protocol promises writes never bounce.
	var (
		ingested atomic.Int64
		reqIdx   atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	errs := make(chan error, opt.Ingesters)
	for g := 0; g < opt.Ingesters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				body := bodies[int(reqIdx.Add(1)-1)%len(bodies)]
				resp, err := client.Post(front.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var ack struct {
					Ingested int64 `json:"ingested"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&ack)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest status %d", resp.StatusCode)
					return
				}
				if decErr != nil {
					errs <- fmt.Errorf("ingest ack: %w", decErr)
					return
				}
				ingested.Add(ack.Ingested)
			}
		}()
	}
	failed := func() error {
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	}

	snap := func() (time.Time, int64) { return time.Now(), ingested.Load() }
	measure := func(name string, t0 time.Time, n0 int64) migratePhase {
		t1, n1 := snap()
		return migratePhase{name: name, items: n1 - n0, elapsed: t1.Sub(t0)}
	}
	change := func(endpoint, member string) (cluster.MigrationStatus, error) {
		body, err := json.Marshal(map[string]string{"url": member})
		if err != nil {
			return cluster.MigrationStatus{}, err
		}
		resp, err := client.Post(front.URL+endpoint+"?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return cluster.MigrationStatus{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return cluster.MigrationStatus{}, fmt.Errorf("%s: status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(msg))
		}
		var st cluster.MigrationStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return cluster.MigrationStatus{}, err
		}
		if st.Outcome != "done" {
			return st, fmt.Errorf("%s: migration %s: %s", endpoint, st.Outcome, st.Error)
		}
		return st, nil
	}

	var phases []migratePhase
	var migs []cluster.MigrationStatus

	// Timeline: baseline → add joiner → settle → drain an original →
	// settle. The drain victim is an ORIGINAL member so the second
	// migration moves warm, fully-populated partitions.
	t0, n0 := snap()
	time.Sleep(settle)
	phases = append(phases, measure("baseline    (3 members)", t0, n0))

	t0, n0 = snap()
	addSt, err := change("/cluster/members", joiner)
	if err != nil {
		return err
	}
	phases = append(phases, measure("add joiner  (migrating)", t0, n0))
	migs = append(migs, addSt)

	t0, n0 = snap()
	time.Sleep(settle)
	phases = append(phases, measure("settled     (4 members)", t0, n0))

	t0, n0 = snap()
	drainSt, err := change("/cluster/drain", initial[0])
	if err != nil {
		return err
	}
	phases = append(phases, measure("drain member(migrating)", t0, n0))
	migs = append(migs, drainSt)

	t0, n0 = snap()
	time.Sleep(settle)
	phases = append(phases, measure("settled     (3 members)", t0, n0))

	stop.Store(true)
	wg.Wait()
	if err := failed(); err != nil {
		return err
	}

	base := phases[0].rate()
	fmt.Fprintf(w, "\n%-24s %12s %12s\n", "phase", "items/sec", "vs baseline")
	for _, p := range phases {
		fmt.Fprintf(w, "%-24s %12.0f %11.2fx\n", p.name, p.rate(), p.rate()/base)
		record("migrate_phase_throughput", p.rate(), "items/sec", "phase", p.name)
	}
	fmt.Fprintln(w)
	for _, st := range migs {
		fmt.Fprintf(w, "%-5s %s: done in %.0fms (handoff stall %.1fms, cutover stall %.1fms), moved %d edges / %d KB, forwarded %d items, shadowed %d\n",
			st.Mode, st.Target, st.DurationMS, st.HandoffStallMS, st.CutoverStallMS,
			st.MovedEdges, st.MovedBytes/1024, st.ForwardedItems, st.ShadowItems)
		record("migrate_duration", st.DurationMS/1000, "seconds", "mode", st.Mode)
		record("migrate_handoff_stall", st.HandoffStallMS/1000, "seconds", "mode", st.Mode)
		record("migrate_cutover_stall", st.CutoverStallMS/1000, "seconds", "mode", st.Mode)
		record("migrate_moved_bytes", float64(st.MovedBytes), "bytes", "mode", st.Mode)
	}

	// Conservation under load: everything the servers acknowledged must
	// still be counted after two migrations moved partitions around.
	var st gss.Stats
	if err := getStats(client, front.URL+"/stats", &st); err != nil {
		return err
	}
	total := ingested.Load()
	if st.Items != total {
		return fmt.Errorf("cluster holds %d items after migrations, acknowledged %d", st.Items, total)
	}
	fmt.Fprintf(w, "\ncross-check: cluster holds %d items = acknowledged ingest total\n", total)
	return nil
}
