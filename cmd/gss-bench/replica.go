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

	"repro/internal/gss"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Replica mode prices the durability and fail-over layer:
//
//  1. Ingest throughput on the same backend with checkpointing off vs
//     on — what the periodic snapshot loop costs the hot path.
//  2. Follower staleness: a read replica polling the primary while it
//     ingests at full speed; reported as the item lag sampled over the
//     run and the time to converge after ingest stops.
type replicaBenchOptions struct {
	Ingesters      int           // concurrent client goroutines
	Items          int           // total stream items
	Batch          int           // server-side decode batch size
	ReqItems       int           // items per bulk HTTP request
	Shards         int           // shard count
	Width          int           // sketch matrix width
	CheckpointEach time.Duration // primary checkpoint interval
	FollowEach     time.Duration // follower poll interval
}

func runReplicaBench(opt replicaBenchOptions, w io.Writer) error {
	if opt.Ingesters < 1 {
		opt.Ingesters = 4
	}
	if opt.Items < 1 {
		opt.Items = 200000
	}
	if opt.Batch < 1 {
		opt.Batch = 1000
	}
	if opt.ReqItems < 1 {
		opt.ReqItems = 10 * opt.Batch
	}
	if opt.Shards < 1 {
		opt.Shards = 16
	}
	if opt.Width < 1 {
		opt.Width = 512
	}
	if opt.CheckpointEach <= 0 {
		opt.CheckpointEach = 200 * time.Millisecond
	}
	if opt.FollowEach <= 0 {
		opt.FollowEach = 100 * time.Millisecond
	}

	cfg := gss.Config{Width: opt.Width, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	items := stream.Generate(stream.DatasetConfig{Name: "replica-bench",
		Nodes: 5000, Edges: opt.Items, DegreeSkew: 1.4, WeightSkew: 1.2,
		MaxWeight: 100, Seed: 7})
	bodies, err := requestBodies(items, opt.ReqItems)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replica bench: %d items, %d ingesters, batch=%d, req=%d, width=%d, shards=%d\n",
		opt.Items, opt.Ingesters, opt.Batch, opt.ReqItems, opt.Width, opt.Shards)

	// Part 1: checkpointing off vs on.
	fmt.Fprintf(w, "\n%-24s %12s %14s %12s\n", "configuration", "items/sec", "checkpoints", "ckpt bytes")
	for _, ckpt := range []bool{false, true} {
		srvOpt := server.Options{Backend: sketch.BackendSharded, Shards: opt.Shards,
			BatchSize: opt.Batch, Logf: func(string, ...interface{}) {}}
		label := "checkpointing off"
		var dir string
		if ckpt {
			label = fmt.Sprintf("checkpointing %s", opt.CheckpointEach)
			dir, err = os.MkdirTemp("", "gss-replica-bench-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			srvOpt.CheckpointDir = dir
			srvOpt.CheckpointInterval = opt.CheckpointEach
		}
		srv, err := server.NewWithOptions(cfg, srvOpt)
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		elapsed, err := driveIngest(ts.URL, bodies, opt.Ingesters)
		if err != nil {
			ts.Close()
			srv.Close()
			return err
		}
		var written, bytesWritten int64
		if ckpt {
			// Force one checkpoint of the final state so the report
			// shows a full-size checkpoint even on runs shorter than
			// the interval.
			resp, err := http.Post(ts.URL+"/checkpoint", "", nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			rs := replicaStatsOf(ts.URL)
			if rs.Checkpoint != nil {
				written, bytesWritten = rs.Checkpoint.Written, rs.Checkpoint.LastBytes
			}
		}
		ts.Close()
		srv.Close()
		if !ckpt {
			fmt.Fprintf(w, "%-24s %12.0f %14s %12s\n", label,
				float64(opt.Items)/elapsed.Seconds(), "-", "-")
		} else {
			fmt.Fprintf(w, "%-24s %12.0f %14d %12d\n", label,
				float64(opt.Items)/elapsed.Seconds(), written, bytesWritten)
			record("replica_checkpoint_bytes", float64(bytesWritten), "bytes",
				"configuration", label)
		}
		record("replica_ingest_throughput", float64(opt.Items)/elapsed.Seconds(), "items/sec",
			"configuration", label)
	}

	// Part 2: follower staleness while the primary ingests.
	primary, err := server.NewWithOptions(cfg, server.Options{
		Backend: sketch.BackendSharded, Shards: opt.Shards, BatchSize: opt.Batch})
	if err != nil {
		return err
	}
	defer primary.Close()
	tsP := httptest.NewServer(primary.Handler())
	defer tsP.Close()
	follower, err := server.NewWithOptions(cfg, server.Options{
		Backend: sketch.BackendSharded, Shards: opt.Shards,
		FollowURL: tsP.URL, FollowInterval: opt.FollowEach,
		Logf: func(string, ...interface{}) {}})
	if err != nil {
		return err
	}
	defer follower.Close()
	tsF := httptest.NewServer(follower.Handler())
	defer tsF.Close()

	var maxLag, lagSum, samples int64
	stopSampling := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		t := time.NewTicker(opt.FollowEach / 2)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				lag := primary.Sketch().Stats().Items - follower.Sketch().Stats().Items
				if lag > maxLag {
					maxLag = lag
				}
				lagSum += lag
				samples++
			}
		}
	}()

	start := time.Now()
	if _, err := driveIngest(tsP.URL, bodies, opt.Ingesters); err != nil {
		close(stopSampling)
		samplerDone.Wait()
		return err
	}
	ingestElapsed := time.Since(start)
	close(stopSampling)
	samplerDone.Wait()

	// Convergence: how long after the last write until the follower
	// serves the final state (bounded by one poll plus one transfer).
	converge := time.Now()
	want := primary.Sketch().Stats().Items
	for follower.Sketch().Stats().Items != want {
		if time.Since(converge) > 30*time.Second {
			return fmt.Errorf("follower never converged: %d vs %d",
				follower.Sketch().Stats().Items, want)
		}
		time.Sleep(time.Millisecond)
	}
	convergence := time.Since(converge)
	rs := replicaStatsOf(tsF.URL)

	fmt.Fprintf(w, "\nfollower staleness (poll %s, primary ingesting %.0f items/s):\n",
		opt.FollowEach, float64(opt.Items)/ingestElapsed.Seconds())
	avg := int64(0)
	if samples > 0 {
		avg = lagSum / samples
	}
	fmt.Fprintf(w, "  item lag during ingest: avg %d, max %d (%d samples)\n", avg, maxLag, samples)
	fmt.Fprintf(w, "  converged %v after last write (interval %s)\n", convergence, opt.FollowEach)
	record("replica_follower_lag_avg", float64(avg), "items")
	record("replica_follower_lag_max", float64(maxLag), "items")
	record("replica_follower_convergence", convergence.Seconds(), "seconds")
	if rs.Follower != nil {
		fmt.Fprintf(w, "  polls=%d applied=%d failed=%d\n",
			rs.Follower.Polls, rs.Follower.Applied, rs.Follower.Failed)
	}

	// Part 3: snapshot-poll vs log-tail transfer cost. Both follower
	// modes bootstrap from one snapshot; the measurement starts after
	// that, so the table prices the steady state — what a converged
	// follower keeps paying per poll interval. The trickle workload (a
	// few items per interval) is where polling is pathological: the
	// snapshot body is dominated by the dense matrix arrays, whose
	// serialized size does not depend on how many items changed — or
	// whether any did.
	fmt.Fprintf(w, "\nsnapshot-poll vs log-tail steady-state transfer (poll %s):\n", opt.FollowEach)
	fmt.Fprintf(w, "%-10s %-9s %10s %14s %12s %14s\n",
		"workload", "mode", "items", "transferred", "bytes/item", "bytes/poll")
	type tkey struct {
		workload string
		tail     bool
	}
	perPoll := make(map[tkey]float64)
	trickleN := 600
	if trickleN > len(items) {
		trickleN = len(items)
	}
	trickleBodies, err := requestBodies(items[:trickleN], 20)
	if err != nil {
		return err
	}
	for _, workload := range []string{"trickle", "firehose"} {
		for _, tail := range []bool{false, true} {
			res, err := measureFollowerTransfer(cfg, opt, bodies, trickleBodies, workload == "trickle", tail)
			if err != nil {
				return err
			}
			mode := "snapshot"
			if tail {
				mode = "tail"
			}
			perItem := float64(res.bytes)
			if res.items > 0 {
				perItem /= float64(res.items)
			}
			fmt.Fprintf(w, "%-10s %-9s %10d %14d %12.0f %14.0f\n",
				workload, mode, res.items, res.bytes, perItem, res.perPoll)
			record("replica_transfer_bytes_per_poll", res.perPoll, "bytes",
				"workload", workload, "mode", mode)
			perPoll[tkey{workload, tail}] = res.perPoll
		}
	}
	for _, workload := range []string{"trickle", "firehose"} {
		snap, tl := perPoll[tkey{workload, false}], perPoll[tkey{workload, true}]
		if tl > 0 {
			fmt.Fprintf(w, "  %s: log tailing moves %.1fx fewer bytes per poll than snapshot polling\n",
				workload, snap/tl)
		}
	}

	fmt.Fprintln(w, "\nCheckpoints ride the same snapshot path queries use, so the cost is one"+
		"\nextra reader per interval; follower staleness is bounded by the poll interval"+
		"\nplus one transfer — a full snapshot when polling, just the item delta when"+
		"\ntailing the primary's operation log.")
	return nil
}

// transferResult is one cell of the part-3 table.
type transferResult struct {
	items   int64   // items ingested during the measured window
	bytes   int64   // snapshot + tailed bytes the follower transferred
	perPoll float64 // bytes per poll tick
}

// measureFollowerTransfer stands up a primary and one follower, lets
// the follower bootstrap and converge on a seed batch, then measures
// the transfer counters across the workload: trickle posts one small
// request per poll interval, firehose drives the full stream at max
// speed. With tail set the primary keeps an operation log, which the
// follower tails; without one the follower can only poll snapshots.
func measureFollowerTransfer(cfg gss.Config, opt replicaBenchOptions, bodies, trickleBodies [][]byte, trickle, tail bool) (transferResult, error) {
	var res transferResult
	quiet := func(string, ...interface{}) {}
	popt := server.Options{Backend: sketch.BackendSharded, Shards: opt.Shards,
		BatchSize: opt.Batch, Logf: quiet}
	if tail {
		logDir, err := os.MkdirTemp("", "gss-replica-bench-log-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(logDir)
		popt.LogDir = logDir
	}
	primary, err := server.NewWithOptions(cfg, popt)
	if err != nil {
		return res, err
	}
	defer primary.Close()
	tsP := httptest.NewServer(primary.Handler())
	defer tsP.Close()

	// Seed batch: the follower's bootstrap snapshot covers this, keeping
	// the one-time bootstrap cost out of the steady-state numbers.
	if _, err := driveIngest(tsP.URL, bodies[:1], 1); err != nil {
		return res, err
	}

	follower, err := server.NewWithOptions(cfg, server.Options{
		Backend: sketch.BackendSharded, Shards: opt.Shards,
		FollowURL: tsP.URL, FollowInterval: opt.FollowEach, Logf: quiet})
	if err != nil {
		return res, err
	}
	defer follower.Close()
	tsF := httptest.NewServer(follower.Handler())
	defer tsF.Close()

	waitConverged := func() error {
		deadline := time.Now().Add(30 * time.Second)
		for follower.Sketch().Stats().Items != primary.Sketch().Stats().Items {
			if time.Now().After(deadline) {
				return fmt.Errorf("follower never converged: %d vs %d",
					follower.Sketch().Stats().Items, primary.Sketch().Stats().Items)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	if err := waitConverged(); err != nil {
		return res, err
	}
	base := replicaStatsOf(tsF.URL)
	baseItems := primary.Sketch().Stats().Items

	if trickle {
		client := &http.Client{}
		defer client.CloseIdleConnections()
		for _, body := range trickleBodies {
			resp, err := client.Post(tsP.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				return res, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return res, fmt.Errorf("trickle ingest status %d", resp.StatusCode)
			}
			time.Sleep(opt.FollowEach)
		}
	} else {
		if _, err := driveIngest(tsP.URL, bodies[1:], opt.Ingesters); err != nil {
			return res, err
		}
	}
	if err := waitConverged(); err != nil {
		return res, err
	}
	after := replicaStatsOf(tsF.URL)
	if base.Follower == nil || after.Follower == nil {
		return res, fmt.Errorf("follower stats missing from /replica/stats")
	}
	res.items = primary.Sketch().Stats().Items - baseItems
	res.bytes = (after.Follower.SnapshotBytes + after.Follower.TailedBytes) -
		(base.Follower.SnapshotBytes + base.Follower.TailedBytes)
	if polls := after.Follower.Polls - base.Follower.Polls; polls > 0 {
		res.perPoll = float64(res.bytes) / float64(polls)
	}
	return res, nil
}

func replicaStatsOf(baseURL string) server.ReplicaStats {
	var rs server.ReplicaStats
	resp, err := http.Get(baseURL + "/replica/stats")
	if err != nil {
		return rs
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&rs)
	return rs
}

// requestBodies pre-encodes the stream into NDJSON request bodies.
func requestBodies(items []stream.Item, reqItems int) ([][]byte, error) {
	var bodies [][]byte
	for off := 0; off < len(items); off += reqItems {
		end := off + reqItems
		if end > len(items) {
			end = len(items)
		}
		var buf bytes.Buffer
		if err := stream.EncodeNDJSON(&buf, items[off:end]); err != nil {
			return nil, err
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies, nil
}

// driveIngest pushes the pre-encoded bodies through POST /ingest with
// n concurrent clients and returns the elapsed wall time.
func driveIngest(url string, bodies [][]byte, n int) (time.Duration, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: n * 2, MaxIdleConnsPerHost: n * 2}}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				resp, err := client.Post(url+"/ingest", "application/x-ndjson", bytes.NewReader(bodies[i]))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return time.Since(start), nil
}
