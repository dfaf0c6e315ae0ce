// Package server exposes a Graph Stream Sketch over HTTP, the way a
// monitoring pipeline would deploy it: collectors POST stream items,
// dashboards and responders GET queries, and operators snapshot or
// restore the sketch for fail-over. All handlers are JSON except the
// binary snapshot endpoints.
//
//	POST /insert        {"src":"a","dst":"b","weight":1}  (or an array)
//	POST /ingest        NDJSON bulk ingest, one item per line
//	POST /ingest?async=1  enqueue to the worker pool; 429 when full
//	GET  /ingest/stats  ingest pipeline counters and queue depth
//	GET  /edge?src=a&dst=b
//	GET  /successors?v=a
//	GET  /precursors?v=a
//	GET  /nodes?limit=100   (limit=0 returns all; default 10000)
//	GET  /nodeout?v=a
//	GET  /nodein?v=a
//	GET  /reachable?src=a&dst=b
//	GET  /heavy?min=100
//	GET  /stats
//	GET  /snapshot      (binary sketch snapshot; X-Log-Seq on logging primaries)
//	GET  /log?from=N    (operation-log records for tailing followers)
//	POST /restore       (binary sketch snapshot)
//	POST /checkpoint    force a durable checkpoint (checkpointing servers)
//	GET  /replica/stats replication role, checkpoint and follower counters
//	GET  /healthz       liveness: role, backend name, uptime
//
// The sketch backend is selected at construction: "concurrent" allows
// parallel reads under a read-write lock, "sharded" partitions the
// sketch so ingestion itself runs in parallel, and "windowed"
// summarizes only a sliding window of recent stream time in bounded
// memory. All synchronization lives in the backend (see
// internal/sketch); handlers just call it. Both ingest planes — NDJSON
// items and pre-hashed GSB1 batches — insert in arrival order, so
// replaying the operation log reproduces the sketch byte for byte
// whichever plane fed it.
//
// Items that arrive without a timestamp (or with time 0 — the wire
// form cannot tell them apart) are stamped with the server's arrival
// clock before insertion, so windowed backends rotate correctly even
// for producers that never set "time".
//
// Deployments that must survive restarts set Options.CheckpointDir: the
// server recovers from the newest valid checkpoint at startup and
// streams periodic snapshots to disk. Deployments that must scale reads
// set Options.FollowURL: the server becomes a read replica that tails
// the primary's /log (bootstrapping from, and falling back to, its
// /snapshot) and answers 403 on every write endpoint (see replica.go
// and internal/replica).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gss"
	"repro/internal/oplog"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Options configures the server's backend and ingest pipeline. The
// zero value means: concurrent backend (parallel reads, like the
// pre-pipeline server), batch size 512, a 64-batch async queue
// drained by 2 workers.
type Options struct {
	// Backend is the sketch synchronization strategy: "concurrent",
	// "sharded" or "windowed" (default "concurrent").
	Backend string
	// Shards is the shard count for the sharded backend (default 8).
	Shards int
	// WindowSpan is the windowed backend's window length in
	// stream-time units (default sketch.DefaultWindowSpan).
	WindowSpan int64
	// WindowGenerations is the windowed backend's rotation granularity
	// (default sketch.DefaultWindowGenerations).
	WindowGenerations int
	// BatchSize is the default /ingest decode batch size, overridable
	// per request with ?batch=N (default 512).
	BatchSize int
	// QueueDepth is the async ingest queue capacity in batches
	// (default 64).
	QueueDepth int
	// Workers is the async ingest worker count (default 2).
	Workers int
	// Now reports the current stream time; items that arrive with no
	// timestamp are stamped with it so windowed backends rotate on
	// arrival time. Defaults to the Unix-seconds wall clock;
	// injectable for tests and replays. Handlers call it from
	// concurrent request goroutines, so an injected clock must be safe
	// for concurrent use.
	Now func() int64

	// LogDir enables the append-only operation log: every applied
	// insert/ingest batch is appended (and fsynced per LogSyncEvery)
	// before the request is acknowledged, startup recovery replays the
	// log from the newest checkpoint's sequence, and GET /log serves
	// the records so followers can tail deltas instead of re-fetching
	// snapshots. Empty disables the log. Mutually exclusive with
	// FollowURL — a follower replicates, it does not originate a log.
	LogDir string
	// LogSegmentBytes is the segment rotation threshold (default 8 MiB).
	LogSegmentBytes int64
	// LogSyncEvery is the fsync batching window: an append only forces
	// fsync when this much time passed since the last one (default
	// 50ms; <0 syncs every append). Crash loss is bounded by the
	// window; checkpoints and clean Close always sync.
	LogSyncEvery time.Duration

	// CheckpointDir enables durable checkpoints: the server recovers
	// from the newest valid checkpoint in this directory at startup
	// (corrupt ones are skipped with a warning) and periodically
	// snapshots the sketch into it. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointInterval is the time between periodic checkpoints
	// (default 30s). Close always takes one final checkpoint.
	CheckpointInterval time.Duration
	// CheckpointKeep is how many checkpoints to retain (default 3).
	CheckpointKeep int

	// FollowURL makes this server a read replica of the primary at the
	// given base URL: it tails FollowURL/log, bootstrapping from (and
	// falling back to) FollowURL/snapshot, which it hot-swaps behind the
	// read path — a primary without a log is followed by snapshot polls
	// alone — and rejects /insert, /ingest and /restore with 403. A
	// follower may still checkpoint (set CheckpointDir) to be a warm
	// spare with local durability. Empty means primary.
	FollowURL string
	// FollowInterval is the follower's poll interval (default 2s); the
	// first poll happens immediately, so a fresh follower serves
	// current reads within one interval.
	FollowInterval time.Duration

	// MaxRestoreBytes caps the /restore request body so a rogue client
	// cannot OOM the server (default 1 GiB).
	MaxRestoreBytes int64

	// Logf receives operational warnings (checkpoint failures, skipped
	// corrupt checkpoints, failed follower polls). Defaults to
	// log.Printf; inject to route or silence.
	Logf func(format string, args ...interface{})

	// Metrics is the registry the server registers its instruments in
	// and serves at GET /metrics. Nil means a fresh private registry —
	// tests and embedders that never scrape pay only the registration.
	Metrics *telemetry.Registry
	// SlowQuery, when non-nil, receives every request that ran past its
	// threshold, with the per-member span trace the middleware collects.
	// The server does not own it: the caller that built it closes it
	// after the server stops.
	SlowQuery *telemetry.SlowQueryLog
}

func (o Options) withDefaults() Options {
	if o.Backend == "" {
		o.Backend = sketch.BackendConcurrent
	}
	if o.Shards < 1 {
		o.Shards = 8
	}
	if o.BatchSize < 1 {
		o.BatchSize = 512
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 64
	}
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.Now == nil {
		o.Now = func() int64 { return time.Now().Unix() }
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = 30 * time.Second
	}
	if o.CheckpointKeep < 1 {
		o.CheckpointKeep = 3
	}
	if o.FollowInterval <= 0 {
		o.FollowInterval = 2 * time.Second
	}
	if o.MaxRestoreBytes < 1 {
		o.MaxRestoreBytes = 1 << 30
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Server serves a Sketch over HTTP.
type Server struct {
	sk    sketch.Sketch
	opt   Options
	start time.Time // construction time; /healthz reports uptime from it

	// pipeMu guards the lazily started async worker pool. A sync.Once
	// would be simpler, but Close must be able to ask "did it ever
	// start?" without starting it.
	pipeMu sync.Mutex
	pipe   *pipeline

	// restoreMu keeps /restore and follower snapshot swaps atomic with
	// respect to compound queries. Single-primitive handlers rely on
	// the backend's own synchronization, but /reachable and /nodeout
	// chain several primitives and must not see the sketch swapped
	// mid-chain.
	restoreMu sync.RWMutex

	// applyMu is the log/sketch consistency barrier on logging
	// primaries: appliers hold it shared around append+insert, and the
	// checkpoint snapshot holds it exclusively while capturing the log
	// sequence together with the sketch bytes — so replay from a
	// checkpoint's sequence never double-counts or misses a batch.
	applyMu sync.RWMutex
	olog    *oplog.Log
	// snapSeq is the log sequence captured with the latest checkpoint
	// snapshot, handed to the checkpointer's meta sidecar.
	snapSeq atomic.Uint64
	// replayed counts the log items startup recovery replayed.
	replayed atomic.Int64

	// Replication (see replica.go); nil unless configured in Options.
	ckpt *replica.Checkpointer
	fol  *replica.Follower
	hot  *sketch.Hot // the swappable read path, set in follower mode

	// met holds the /metrics instruments (see metrics.go); always set.
	met *serverMetrics
}

// New builds a Server around an empty concurrent sketch with default
// options.
func New(cfg gss.Config) (*Server, error) {
	return NewWithOptions(cfg, Options{})
}

// NewWithOptions builds a Server with the chosen backend, ingest
// pipeline and replication configuration. Checkpoint recovery happens
// here, before the first request can be served.
func NewWithOptions(cfg gss.Config, opt Options) (*Server, error) {
	opt = opt.withDefaults()
	build := func() (sketch.Sketch, error) {
		return sketch.New(opt.Backend, cfg, sketch.Options{
			Shards:            opt.Shards,
			WindowSpan:        opt.WindowSpan,
			WindowGenerations: opt.WindowGenerations,
		})
	}
	sk, err := build()
	if err != nil {
		return nil, err
	}
	s := NewFromSketch(sk, opt)
	if err := s.initReplication(build); err != nil {
		s.Close() // stop whatever partially started
		return nil, err
	}
	return s, nil
}

// NewFromSketch builds a Server around a caller-provided sketch. The
// sketch must be safe for concurrent use. Replication options are not
// wired here — building follower backends needs the sketch
// configuration, which only NewWithOptions has.
func NewFromSketch(sk sketch.Sketch, opt Options) *Server {
	s := &Server{sk: sk, opt: opt.withDefaults(), start: time.Now()}
	reg := s.opt.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.met = newServerMetrics(s, reg, s.opt.SlowQuery)
	return s
}

// Metrics returns the registry the server's instruments live in — the
// one /metrics serves.
func (s *Server) Metrics() *telemetry.Registry { return s.met.reg }

// pipeline lazily starts the async worker pool on first use, so
// servers that never see an async ingest spawn no goroutines and need
// no Close.
func (s *Server) pipeline() *pipeline {
	s.pipeMu.Lock()
	defer s.pipeMu.Unlock()
	if s.pipe == nil {
		s.pipe = newPipeline(s.apply, s.opt.QueueDepth, s.opt.Workers)
	}
	return s.pipe
}

// apply is the single write path behind every ingest route, fed only
// hashed batches: every front door hashes right after decoding (or
// takes the hashes a GSB1 producer carried). On a logging primary the
// batch is appended to the operation log before it is inserted (and
// thus before the request is acknowledged), under the shared side of
// applyMu so checkpoints capture a consistent (snapshot, log sequence)
// pair. A job that still carries its wire payload views is logged as a
// straight byte copy (oplog.AppendEncoded); any other job is encoded
// from the batch itself. Either way the log holds the same bytes, so
// replay and follower tailing see one log format — and since every
// plane inserts in arrival order, replay rebuilds the sketch exactly.
// A log append failure is logged and the insert still happens —
// availability over replayability — but the torn batch was rolled
// back, so the log stays internally consistent.
func (s *Server) apply(job ingestJob) {
	if s.olog == nil {
		s.sk.InsertHashedBatch(job.hashed)
		return
	}
	s.applyMu.RLock()
	defer s.applyMu.RUnlock()
	var err error
	if job.payloads != nil {
		_, _, err = s.olog.AppendEncoded(job.payloads)
	} else {
		_, _, err = s.olog.AppendHashed(job.hashed)
	}
	if err != nil {
		s.opt.Logf("server: oplog append: %v", err)
	}
	s.sk.InsertHashedBatch(job.hashed)
}

// startedPipeline returns the worker pool if one has started, without
// starting it — Close and the stats endpoint must observe an idle
// server, not create work in it.
func (s *Server) startedPipeline() *pipeline {
	s.pipeMu.Lock()
	defer s.pipeMu.Unlock()
	return s.pipe
}

// Sketch returns the backing sketch (for embedding and tests).
func (s *Server) Sketch() sketch.Sketch { return s.sk }

// Close drains and stops the async ingest workers if any started, then
// stops the replication loops: the follower poller, and the
// checkpointer after one final checkpoint — taken after the ingest
// queue drained, so a clean shutdown persists every accepted item. The
// server must not receive requests afterwards.
func (s *Server) Close() {
	if p := s.startedPipeline(); p != nil {
		p.close()
	}
	if s.fol != nil {
		s.fol.Close()
	}
	if s.ckpt != nil {
		s.ckpt.Close()
	}
	// After the final checkpoint: everything the log still holds is
	// covered, and nothing appends anymore.
	if s.olog != nil {
		if err := s.olog.Close(); err != nil {
			s.opt.Logf("server: closing oplog: %v", err)
		}
	}
}

// Handler returns the HTTP handler for the API. Every route goes
// through the telemetry middleware — request counts by status class,
// in-flight gauge, latency histogram, request-ID minting — which
// passes response bytes through untouched; the instrumented routes
// answer byte-for-byte what the bare handlers would.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.HandleFunc(route, s.met.http.Wrap(route, h))
	}
	handle("/insert", s.handleInsert)
	handle("/ingest", s.handleIngest)
	handle("/ingest/stats", s.handleIngestStats)
	handle("/edge", s.handleEdge)
	handle("/successors", s.handleNeighbors(true))
	handle("/precursors", s.handleNeighbors(false))
	handle("/nodes", s.handleNodes)
	handle("/nodeout", s.handleNodeOut)
	handle("/nodein", s.handleNodeIn)
	handle("/reachable", s.handleReachable)
	handle("/heavy", s.handleHeavy)
	handle("/stats", s.handleStats)
	handle("/snapshot", s.handleSnapshot)
	handle("/log", s.handleLog)
	handle("/partition/export", s.handlePartitionExport)
	handle("/partition/drop", s.handlePartitionDrop)
	handle("/partition/absorb", s.handlePartitionAbsorb)
	handle("/restore", s.handleRestore)
	handle("/checkpoint", s.handleCheckpoint)
	handle("/replica/stats", s.handleReplicaStats)
	handle("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.met.reg.Handler())
	return mux
}

// Healthz is the /healthz payload: a k8s-style liveness answer that also
// tells a prober (the cluster router, an orchestrator) what it is
// talking to — a primary or a read-only follower — and which backend is
// behind it.
type Healthz struct {
	Status        string `json:"status"` // always "ok" when the handler answers
	Role          string `json:"role"`   // "primary" or "follower"
	Backend       string `json:"backend"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	role := "primary"
	if s.follower() {
		role = "follower"
	}
	writeJSON(w, Healthz{
		Status:        "ok",
		Role:          role,
		Backend:       s.opt.Backend,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	})
}

// handleInsert applies one item object or an array of them — the
// small-batch write route. The body is capped at stream.MaxInsertBytes
// (413 past it) and decoded by stream.DecodeInsert, the decoder the
// cluster router shares.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, stream.MaxInsertBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes; stream bulk uploads through /ingest", stream.MaxInsertBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	items, err := stream.DecodeInsert(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := stream.HashItems(items, make([]stream.HashedItem, 0, len(items)))
	s.stampArrival(batch)
	s.apply(ingestJob{hashed: batch})
	writeJSON(w, map[string]int{"inserted": len(batch)})
}

// stampArrival fills in the arrival time on items that carry no
// timestamp. The JSON wire form cannot distinguish an absent "time"
// from an explicit 0, so time 0 means "now". Windowed backends need
// every item timed to rotate generations; whole-stream backends ignore
// the field. Every ingest path — /insert, sync and async /ingest —
// stamps before handing items to the sketch, so the async worker pool
// sees arrival times, not enqueue-drain times. The hashes do not cover
// the timestamp, so stamping a hashed batch is safe; the return value
// reports whether anything was stamped — the signal that the batch's
// wire payload bytes went stale for logging.
func (s *Server) stampArrival(items []stream.HashedItem) bool {
	var now int64
	stamped := false
	for i := range items {
		if items[i].Time != 0 {
			continue
		}
		if !stamped {
			now, stamped = s.opt.Now(), true
		}
		items[i].Time = now
	}
	return stamped
}

func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	src, dst := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
	if src == "" || dst == "" {
		httpError(w, http.StatusBadRequest, "src and dst are required")
		return
	}
	weight, ok := s.sk.EdgeWeight(src, dst)
	writeJSON(w, map[string]interface{}{"src": src, "dst": dst, "weight": weight, "found": ok})
}

func (s *Server) handleNeighbors(successors bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := r.URL.Query().Get("v")
		if v == "" {
			httpError(w, http.StatusBadRequest, "v is required")
			return
		}
		var nodes []string
		if successors {
			nodes = s.sk.Successors(v)
		} else {
			nodes = s.sk.Precursors(v)
		}
		if nodes == nil {
			nodes = []string{}
		}
		writeJSON(w, map[string]interface{}{"v": v, "nodes": nodes})
	}
}

// defaultNodesLimit caps /nodes responses unless the client overrides
// it: a million-node sketch must not serialize (or sort) its whole node
// set because a dashboard polled the endpoint.
const defaultNodesLimit = 10000

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	limit := defaultNodesLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "limit must be a non-negative integer (0 = unlimited)")
			return
		}
		limit = n
	}
	nodes, total := s.nodesPage(limit)
	if nodes == nil {
		nodes = []string{}
	}
	writeJSON(w, map[string]interface{}{
		"nodes":     nodes,
		"total":     total,
		"truncated": len(nodes) < total,
	})
}

// nodesPage returns up to limit node identifiers (0 = all) and the
// total count. It enumerates the registry on the hash plane without
// sorting the full identifier set: the hash list is sorted (cheap
// integers) so the page cut is deterministic per sketch state, but
// only the returned page of strings is sorted — a bounded request
// against a huge sketch costs O(nodes log nodes) integer work plus
// O(limit log limit) string work, not a full-set string sort. Clients
// that need the full set pass limit=0.
func (s *Server) nodesPage(limit int) ([]string, int) {
	hashes := s.sk.AppendNodeHashes(nil)
	slices.Sort(hashes)
	var nodes []string
	total := 0
	for _, hv := range hashes {
		mark := len(nodes)
		nodes = s.sk.AppendHashIDs(hv, nodes)
		total += len(nodes) - mark
		if limit > 0 && len(nodes) > limit {
			nodes = nodes[:limit]
		}
	}
	sort.Strings(nodes)
	return nodes, total
}

func (s *Server) handleNodeOut(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query().Get("v")
	if v == "" {
		httpError(w, http.StatusBadRequest, "v is required")
		return
	}
	s.restoreMu.RLock()
	total := query.NodeOut(s.sk, v)
	s.restoreMu.RUnlock()
	writeJSON(w, map[string]interface{}{"v": v, "out": total})
}

func (s *Server) handleNodeIn(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query().Get("v")
	if v == "" {
		httpError(w, http.StatusBadRequest, "v is required")
		return
	}
	s.restoreMu.RLock()
	total := query.NodeIn(s.sk, v)
	s.restoreMu.RUnlock()
	writeJSON(w, map[string]interface{}{"v": v, "in": total})
}

func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) {
	src, dst := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
	if src == "" || dst == "" {
		httpError(w, http.StatusBadRequest, "src and dst are required")
		return
	}
	s.restoreMu.RLock()
	ok := query.Reachable(s.sk, src, dst)
	s.restoreMu.RUnlock()
	writeJSON(w, map[string]interface{}{"src": src, "dst": dst, "reachable": ok})
}

func (s *Server) handleHeavy(w http.ResponseWriter, r *http.Request) {
	min, err := strconv.ParseInt(r.URL.Query().Get("min"), 10, 64)
	if err != nil || min <= 0 {
		httpError(w, http.StatusBadRequest, "positive integer min is required")
		return
	}
	heavy := s.sk.HeavyEdges(min)
	type edge struct {
		Srcs   []string `json:"srcs"`
		Dsts   []string `json:"dsts"`
		Weight int64    `json:"weight"`
	}
	out := make([]edge, 0, len(heavy))
	for _, he := range heavy {
		out = append(out, edge{Srcs: he.Srcs, Dsts: he.Dsts, Weight: he.Weight})
	}
	writeJSON(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.sk.Stats())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// Buffer the whole snapshot before touching the ResponseWriter: a
	// mid-stream Snapshot error after the first write would otherwise
	// produce a truncated body under a committed 200, and a follower or
	// checkpoint consumer would ingest a torn snapshot. Buffering also
	// yields a Content-Length, so clients detect truncated transfers.
	// On a logging primary, the buffer fills under the apply barrier so
	// the X-Log-Seq header names exactly the sequence this body covers
	// — the offset a tailing follower resumes from.
	var buf bytes.Buffer
	var seq uint64
	var err error
	if s.olog != nil {
		s.applyMu.Lock()
		seq = s.olog.NextSeq()
		err = s.sk.Snapshot(&buf)
		s.applyMu.Unlock()
	} else {
		err = s.sk.Snapshot(&buf)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if s.olog != nil {
		w.Header().Set("X-Log-Seq", strconv.FormatUint(seq, 10))
	}
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Buffer the snapshot before taking restoreMu so a slow upload
	// cannot stall the compound-query handlers sharing the lock. The
	// body is capped: an unbounded read would hand any client an OOM
	// lever.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opt.MaxRestoreBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"snapshot exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading snapshot: %v", err)
		return
	}
	if s.olog != nil {
		// A restore replaces state wholesale, so the log's history no
		// longer leads to it: seal and retire everything logged so far
		// (sequence numbering continues) under the apply barrier, then
		// checkpoint so crash recovery restarts from the restored state
		// rather than replaying the pre-restore log.
		s.applyMu.Lock()
		s.restoreMu.Lock()
		err = s.sk.Restore(bytes.NewReader(data))
		if err == nil {
			if rerr := s.olog.Rotate(); rerr != nil {
				s.opt.Logf("server: rotating oplog after restore: %v", rerr)
			}
			s.olog.Retain(s.olog.NextSeq())
		}
		s.restoreMu.Unlock()
		s.applyMu.Unlock()
		if err == nil {
			if s.ckpt != nil {
				if _, cerr := s.ckpt.CheckpointNow(); cerr != nil {
					s.opt.Logf("server: checkpoint after restore: %v", cerr)
				}
			} else {
				s.opt.Logf("server: restored without a checkpoint dir: a crash before the log refills loses the restored state")
			}
		}
	} else {
		s.restoreMu.Lock()
		err = s.sk.Restore(bytes.NewReader(data))
		s.restoreMu.Unlock()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad snapshot: %v", err)
		return
	}
	writeJSON(w, map[string]string{"status": "restored"})
}

// maxLogBatch bounds one /log response; clients page with ?from=.
const maxLogBatch = 1 << 16

// handleLog (GET /log?from=N&max=M) streams operation-log records
// [from, from+M) in the GSS1 binary stream format. Response headers:
// X-Log-From echoes from, X-Log-Next is the sequence after the last
// returned record (the next ?from to poll), X-Log-End is the log's
// current end. 410 Gone means from was retired (re-sync from
// /snapshot, whose X-Log-Seq gives the resume offset); 416 means from
// is beyond the end; 404 means this server keeps no log.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	if s.olog == nil {
		httpError(w, http.StatusNotFound, "no operation log on this server")
		return
	}
	var from uint64
	if raw := r.URL.Query().Get("from"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "from must be a non-negative integer")
			return
		}
		from = n
	}
	max := 8192
	if raw := r.URL.Query().Get("max"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > maxLogBatch {
			httpError(w, http.StatusBadRequest, "max must be an integer in [1,%d]", maxLogBatch)
			return
		}
		max = n
	}
	var buf bytes.Buffer
	sw := stream.NewWriter(&buf)
	next, err := s.olog.ReadFrom(from, max, sw.WriteItem)
	switch {
	case err == oplog.ErrRetired:
		w.Header().Set("X-Log-Oldest", strconv.FormatUint(s.olog.OldestSeq(), 10))
		httpError(w, http.StatusGone,
			"offset %d has been retired (oldest retained: %d); re-sync from /snapshot", from, s.olog.OldestSeq())
		return
	case err == oplog.ErrFuture:
		httpError(w, http.StatusRequestedRangeNotSatisfiable,
			"offset %d is beyond the log end %d", from, s.olog.NextSeq())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "reading log: %v", err)
		return
	}
	if err := sw.Flush(); err != nil {
		httpError(w, http.StatusInternalServerError, "encoding log: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Header().Set("X-Log-From", strconv.FormatUint(from, 10))
	w.Header().Set("X-Log-Next", strconv.FormatUint(next, 10))
	w.Header().Set("X-Log-End", strconv.FormatUint(s.olog.NextSeq(), 10))
	_, _ = w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeBody encodes v after the caller has already written the status
// code and headers.
func writeBody(w http.ResponseWriter, v interface{}) {
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
