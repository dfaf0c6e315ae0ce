package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// ingestJob is one hashed batch on its way to the sketch, from any
// front door. A GSB1 batch whose times no arrival stamping rewrote
// also carries the encoded payload views the operation log can append
// verbatim; every other job logs by encoding the batch itself.
type ingestJob struct {
	hashed   []stream.HashedItem
	payloads [][]byte
}

// pipeline is the bounded async ingest path: request handlers decode
// the body into batches and try to enqueue them; a fixed worker pool
// drains the queue into the sketch. The queue is a plain buffered
// channel, so "full" is immediate and cheap to detect — that is the
// backpressure signal handlers turn into HTTP 429, pushing flow
// control back to producers instead of buffering without bound.
type pipeline struct {
	apply   func(ingestJob)
	queue   chan ingestJob
	workers int
	wg      sync.WaitGroup

	enqueuedItems    atomic.Int64
	enqueuedBatches  atomic.Int64
	processedItems   atomic.Int64
	processedBatches atomic.Int64
	droppedItems     atomic.Int64
	droppedBatches   atomic.Int64
	applyNanos       atomic.Int64 // total wall time spent inside apply

	closeOnce sync.Once
}

func newPipeline(apply func(ingestJob), queueDepth, workers int) *pipeline {
	p := &pipeline{apply: apply, queue: make(chan ingestJob, queueDepth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pipeline) worker() {
	defer p.wg.Done()
	for job := range p.queue {
		start := time.Now()
		p.apply(job)
		p.applyNanos.Add(time.Since(start).Nanoseconds())
		p.processedItems.Add(int64(len(job.hashed)))
		p.processedBatches.Add(1)
	}
}

// retryAfterSecs is the backoff hint a 429 carries: an estimate of how
// long the worker pool needs to drain the queue as it stands, from the
// observed mean per-batch apply cost.
func (p *pipeline) retryAfterSecs() int {
	return drainEstimateSecs(len(p.queue), p.processedBatches.Load(),
		p.applyNanos.Load(), p.workers)
}

// drainEstimateSecs estimates, in whole seconds (rounded up), the time
// `workers` goroutines need to drain `depth` queued batches plus the
// one in flight, given `nanos` total apply time over `batches`
// completed batches. Before the first batch completes there is no
// observation and the historical fixed 1s stands in. Clamped to
// [1, 30]: the estimate is a hint, and a huge backlog should slow
// producers down, not park them for minutes against a queue that
// drains nonlinearly.
func drainEstimateSecs(depth int, batches, nanos int64, workers int) int {
	if batches <= 0 || nanos <= 0 || workers < 1 {
		return 1
	}
	avg := nanos / batches
	est := time.Duration((int64(depth) + 1) * avg / int64(workers))
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// tryEnqueue hands a job to the worker pool without blocking. A false
// return means the queue is full; the job is counted as dropped.
func (p *pipeline) tryEnqueue(job ingestJob) bool {
	select {
	case p.queue <- job:
		p.enqueuedItems.Add(int64(len(job.hashed)))
		p.enqueuedBatches.Add(1)
		return true
	default:
		p.droppedItems.Add(int64(len(job.hashed)))
		p.droppedBatches.Add(1)
		return false
	}
}

// close stops accepting work, drains the queue and waits for workers.
func (p *pipeline) close() {
	p.closeOnce.Do(func() {
		close(p.queue)
		p.wg.Wait()
	})
}

// IngestStats is the /ingest/stats payload: pipeline configuration and
// counters. PendingItems = EnqueuedItems - ProcessedItems is the items
// accepted but not yet visible to queries.
type IngestStats struct {
	BatchSize     int `json:"batch_size"`
	Workers       int `json:"workers"`
	QueueCapacity int `json:"queue_capacity"`
	QueueDepth    int `json:"queue_depth"` // batches waiting right now

	EnqueuedItems    int64 `json:"enqueued_items"`
	EnqueuedBatches  int64 `json:"enqueued_batches"`
	ProcessedItems   int64 `json:"processed_items"`
	ProcessedBatches int64 `json:"processed_batches"`
	PendingItems     int64 `json:"pending_items"`
	DroppedItems     int64 `json:"dropped_items"`
	DroppedBatches   int64 `json:"dropped_batches"`
}

func (s *Server) ingestStats() IngestStats {
	st := IngestStats{
		BatchSize:     s.opt.BatchSize,
		Workers:       s.opt.Workers,
		QueueCapacity: s.opt.QueueDepth,
	}
	// A stats poll reports on the pool, it must not start one: an idle
	// server stays at zero goroutines.
	p := s.startedPipeline()
	if p == nil {
		return st
	}
	// Load processed before enqueued: workers only ever process what
	// was already enqueued, so this order (plus the clamp) keeps the
	// derived pending count non-negative under concurrent updates.
	proc := p.processedItems.Load()
	enq := p.enqueuedItems.Load()
	pending := enq - proc
	if pending < 0 {
		pending = 0
	}
	st.QueueDepth = len(p.queue)
	st.EnqueuedItems = enq
	st.EnqueuedBatches = p.enqueuedBatches.Load()
	st.ProcessedItems = proc
	st.ProcessedBatches = p.processedBatches.Load()
	st.PendingItems = pending
	st.DroppedItems = p.droppedItems.Load()
	st.DroppedBatches = p.droppedBatches.Load()
	return st
}

// maxIngestBatch bounds the per-request ?batch= override.
const maxIngestBatch = 1 << 16

// handleIngest is the bulk-ingest endpoint. Content-Type selects the
// plane: NDJSON (default) is decoded in batches of ?batch=N items
// (default Options.BatchSize) so the request streams, and each batch is
// hashed once right after decoding; the binary content type
// (application/x-gss-batch) carries framed batches whose hashes the
// producer already computed, and on logging primaries their payload
// bytes go to the operation log verbatim — no decode, no re-encode.
// From there both planes are one loop: stamp, then apply or enqueue.
// Unknown content types answer 415.
//
// Sync mode (default) inserts each batch before reading the next and
// replies 200 once the whole body is ingested. Async mode (?async=1)
// enqueues batches to the worker pool and replies 202 as soon as the
// body is parsed; if the queue fills mid-request the handler replies
// 429 with counts of what was enqueued versus dropped, and the client
// should back off and retry the remainder.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	binary, ok := stream.IngestPlane(r.Header.Get("Content-Type"))
	if !ok {
		httpError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q (want application/x-ndjson or %s)",
			r.Header.Get("Content-Type"), stream.ContentTypeBinary)
		return
	}
	pm := s.met.plane(binary)
	batchSize := s.opt.BatchSize
	if raw := r.URL.Query().Get("batch"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > maxIngestBatch {
			httpError(w, http.StatusBadRequest, "batch must be an integer in [1,%d]", maxIngestBatch)
			return
		}
		batchSize = n
	}
	async := false
	switch r.URL.Query().Get("async") {
	case "", "0", "false":
	case "1", "true":
		async = true
	default:
		httpError(w, http.StatusBadRequest, "async must be 0 or 1")
		return
	}

	// next yields the body's batches; decodeErr names where the body
	// went bad. The sync path applies each batch before decoding the
	// next, so it recycles one batch buffer for the whole request;
	// async batches are retained by the worker queue and must be fresh.
	body := &countingReader{r: r.Body, c: pm.bytes}
	var next func() ([]stream.HashedItem, [][]byte)
	var decodeErr func() error
	if binary {
		dec := stream.NewBinaryBatchDecoder(body)
		dec.SetReuse(!async)
		next = func() ([]stream.HashedItem, [][]byte) {
			batch := dec.Next()
			return batch, dec.Payloads()
		}
		decodeErr = func() error {
			if err := dec.Err(); err != nil {
				// A bad frame is rejected atomically.
				return fmt.Errorf("frame %d: %v", dec.Frames()+1, err)
			}
			return nil
		}
	} else {
		// The decoded items are copied into the hashed batch at once,
		// so the item buffer is always recycled.
		dec := stream.NewBatchDecoder(body, batchSize)
		dec.SetReuse(true)
		var scratch []stream.HashedItem
		next = func() ([]stream.HashedItem, [][]byte) {
			items := dec.Next()
			if items == nil {
				return nil, nil
			}
			if async {
				scratch = make([]stream.HashedItem, 0, len(items))
			}
			scratch = stream.HashItems(items, scratch[:0])
			return scratch, nil
		}
		decodeErr = func() error {
			if err := dec.Err(); err != nil {
				return fmt.Errorf("line %d: %v", dec.Line(), err)
			}
			return nil
		}
	}
	var items int64
	var batches int64
	for {
		batch, payloads := next()
		if batch == nil {
			break
		}
		if s.stampArrival(batch) {
			// The payload views still encode Time 0; dropping them makes
			// the applier encode the stamped items for the log.
			payloads = nil
		}
		job := ingestJob{hashed: batch, payloads: payloads}
		if async {
			if !s.enqueueOr429(w, job, items, pm) {
				return
			}
		} else {
			s.apply(job)
		}
		items += int64(len(batch))
		batches++
		pm.items.Add(int64(len(batch)))
		pm.batches.Inc()
	}
	if err := decodeErr(); err != nil {
		// Everything before the bad line or frame was already ingested
		// or enqueued; report how far we got.
		pm.decodeErrors.Inc()
		httpError(w, http.StatusBadRequest, "%v (%d items accepted)", err, items)
		return
	}
	if async {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeBody(w, map[string]interface{}{"mode": "async", "enqueued": items, "batches": batches})
		return
	}
	writeJSON(w, map[string]interface{}{"mode": "sync", "ingested": items, "batches": batches})
}

// enqueueOr429 enqueues one job, replying 429 (and returning false)
// when the ingest queue is full. Retry-After is derived from the
// queue's drain state rather than fixed, so a client backs off in
// proportion to the actual backlog.
func (s *Server) enqueueOr429(w http.ResponseWriter, job ingestJob, accepted int64, pm *planeStats) bool {
	p := s.pipeline()
	if p.tryEnqueue(job) {
		return true
	}
	pm.rejected.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(p.retryAfterSecs()))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	writeBody(w, map[string]interface{}{
		"error":    "ingest queue full",
		"enqueued": accepted,
		"dropped":  int64(len(job.hashed)),
	})
	return false
}

func (s *Server) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.ingestStats())
}
