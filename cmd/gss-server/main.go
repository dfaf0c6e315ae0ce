// Command gss-server runs the HTTP-facing Graph Stream Sketch service
// (see internal/server for the API).
//
//	gss-server -addr :8080 -width 2000 -fpbits 16
//	gss-server -backend sharded -shards 16 -ingest-workers 4
//	gss-server -backend windowed -window-span 3600 -window-generations 4
//
// Durable primary (checkpoints + operation log) and a log-tailing read
// replica following it:
//
//	gss-server -addr :8080 -checkpoint-dir /var/lib/gss -log-dir /var/lib/gss/oplog
//	gss-server -addr :8081 -follow http://primary:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gss"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		width  = flag.Int("width", 1000, "matrix width m (≈ sqrt of expected edge count)")
		fpbits = flag.Int("fpbits", 16, "fingerprint bits")
		rooms  = flag.Int("rooms", 2, "rooms per bucket")
		seqlen = flag.Int("seqlen", 16, "square-hashing sequence length r")

		backend = flag.String("backend", sketch.BackendConcurrent,
			"sketch backend: "+strings.Join(sketch.Backends(), "|"))
		shards = flag.Int("shards", 8, "shard count (sharded backend only)")
		span   = flag.Int64("window-span", sketch.DefaultWindowSpan,
			"windowed backend: window length in stream-time units")
		gens = flag.Int("window-generations", sketch.DefaultWindowGenerations,
			"windowed backend: generation count (expiry granularity)")
		batch   = flag.Int("batch", 512, "default /ingest decode batch size")
		queue   = flag.Int("ingest-queue", 64, "async ingest queue capacity (batches)")
		workers = flag.Int("ingest-workers", 2, "async ingest worker goroutines")

		ckptDir = flag.String("checkpoint-dir", "",
			"durable checkpoints: recover from and periodically snapshot into this directory")
		ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second,
			"time between periodic checkpoints")
		ckptKeep = flag.Int("checkpoint-keep", 3, "checkpoints to retain")
		logDir   = flag.String("log-dir", "",
			"append-only operation log: append every applied batch, replay on recovery, serve GET /log to tailing followers")
		logSync = flag.Duration("log-sync", 0,
			"operation log fsync batching window (0 = 50ms default, negative = fsync every append)")
		logSegBytes = flag.Int64("log-segment-bytes", 0,
			"operation log segment rotation threshold (0 = 8MiB default)")
		follow = flag.String("follow", "",
			"run as a read replica of the primary at this base URL: tail its operation log, or poll snapshots if it keeps none (writes answer 403)")
		followEvery = flag.Duration("follow-interval", 2*time.Second,
			"read replica: poll interval")

		debugAddr = flag.String("debug-addr", "",
			"serve net/http/pprof on this separate address (empty disables; keep it off the service port)")
		slowQuery = flag.Duration("slow-query-log", 0,
			"log any request slower than this threshold, with its request ID (0 disables)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	var slow *telemetry.SlowQueryLog
	if *slowQuery > 0 {
		slow = telemetry.NewSlowQueryLog(*slowQuery, logger)
		// Registered before srv's deferred Close, so LIFO ordering drains
		// the log only after the server has stopped observing into it.
		defer slow.Close()
	}

	srv, err := server.NewWithOptions(
		gss.Config{Width: *width, FingerprintBits: *fpbits,
			Rooms: *rooms, SeqLen: *seqlen, Candidates: *seqlen},
		server.Options{Backend: *backend, Shards: *shards,
			WindowSpan: *span, WindowGenerations: *gens,
			BatchSize: *batch, QueueDepth: *queue, Workers: *workers,
			CheckpointDir: *ckptDir, CheckpointInterval: *ckptEvery,
			CheckpointKeep: *ckptKeep,
			LogDir:         *logDir, LogSyncEvery: *logSync, LogSegmentBytes: *logSegBytes,
			FollowURL: *follow, FollowInterval: *followEvery,
			Logf: telemetry.Logf(logger), SlowQuery: slow})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gss-server:", err)
		os.Exit(2)
	}
	defer srv.Close()
	role := "primary"
	if *follow != "" {
		role = "follower of " + *follow
	}
	if *ckptDir != "" {
		role += ", checkpointing to " + *ckptDir
	}
	if *logDir != "" {
		role += ", logging to " + *logDir
	}
	fmt.Printf("gss-server listening on %s (backend=%s width=%d fp=%dbit rooms=%d r=%d batch=%d; %s)\n",
		*addr, *backend, *width, *fpbits, *rooms, *seqlen, *batch, role)

	if *debugAddr != "" {
		dbg, err := telemetry.StartDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gss-server: debug listener:", err)
			os.Exit(2)
		}
		defer dbg.Close()
		fmt.Printf("gss-server: pprof debug listener on http://%s/debug/pprof/\n", dbg.Addr())
	}

	// SIGINT/SIGTERM shut down gracefully: stop accepting requests,
	// then Close the server — which drains the async ingest queue and
	// takes the final checkpoint the ops runbook promises. A crash
	// (SIGKILL, OOM) skips all of this; that is what the periodic
	// checkpoints are for.
	// ReadHeaderTimeout bounds how long a client may dribble request
	// headers (unset, a slow-header client pins a connection forever —
	// Slowloris); no ReadTimeout, because /ingest legitimately streams
	// arbitrarily long bodies. IdleTimeout reclaims keep-alive
	// connections producers abandoned.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	drained := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		fmt.Printf("gss-server: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		close(drained)
	}()
	err = hs.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gss-server:", err)
		os.Exit(1)
	}
	// ListenAndServe returns the moment Shutdown is called; wait for
	// the drain to complete so the deferred Close (final checkpoint)
	// runs after the last in-flight ingest, not concurrently with it.
	<-drained
}
