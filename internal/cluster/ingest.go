package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Write routing. Items partition by source node: the ring owner of
// it.Src gets the item, so a member holds complete out-edge sets for
// the nodes it owns. Writes only ever go to primaries — followers
// answer 403 by design — so when a partition's primary is down the
// router answers 429 with Retry-After, the same backpressure convention
// the bounded ingest queue uses: producers back off and retry instead
// of the router buffering without bound.
//
// The identifier hash is computed once, at the edge. The unit the
// router routes is a validated GSB1 record: a GSB1 upload's records
// are scanned (stream.ScanHashedRecord) and carry the producer's
// hashes; an NDJSON line or an /insert item is decoded, hashed once
// (stream.HashItem) and encoded as a record. Either way the record
// goes to its owner's member frame — every write a member receives
// from the router, spill replay and migration copy included, is a
// GSB1 /ingest request, so members never re-hash an identifier — or,
// for a down partition, its payload goes to the spill log.

func queryEscape(s string) string { return url.QueryEscape(s) }

// retryAfter429 writes the 429 a down partition's writes receive,
// advising the producer to retry after the next probe tick. acceptedKey
// names the accepted-count field so it matches the endpoint's success
// shape ("inserted" for /insert, "ingested" for /ingest). spilled
// counts items durably absorbed into a spill log — those are accepted
// too, and reported separately so a retrying producer knows the
// dropped count alone is what it still owes.
func (rt *Router) retryAfter429(w http.ResponseWriter, acceptedKey string, accepted, spilled, dropped int64, member string) {
	secs := int(rt.cfg.ProbeInterval.Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	body := map[string]interface{}{
		"error":     fmt.Sprintf("partition down: member %s unreachable (writes need the primary)", member),
		acceptedKey: accepted,
		"dropped":   dropped,
	}
	if spilled > 0 {
		body["spilled"] = spilled
	}
	_ = json.NewEncoder(w).Encode(body)
}

// transportError wraps failures to reach a member at all, as opposed to
// a member answering with an error status.
type transportError struct{ err error }

func (e transportError) Error() string { return e.err.Error() }
func (e transportError) Unwrap() error { return e.err }

func isTransport(err error) bool {
	_, ok := err.(transportError)
	return ok
}

// markDown records a failed write to m and flips the partition down,
// logging the transition once.
func (rt *Router) markDown(m *member, what string, err error) {
	m.setErr(err)
	if !m.down.Swap(true) {
		rt.cfg.Logf("cluster: member %s down (%s failed): %v", m.primary, what, err)
	}
}

// maxIngestBatch bounds the per-request ?batch= override (the same cap
// internal/server enforces).
const maxIngestBatch = 1 << 16

// handleInsert routes the posted item(s) — one object or an array,
// decoded by stream.DecodeInsert like a member would, within the same
// stream.MaxInsertBytes cap (413 past it) — through the /ingest
// machinery. Items owned by a down partition are absorbed into its
// spill log when one is configured (counted in the reply as
// "spilled"); without a spill, or with the spill at budget, the
// request stays all-or-nothing: it answers 429 before a single item
// lands, so a producer never has to untangle a partially applied small
// batch.
func (rt *Router) handleInsert(w http.ResponseWriter, r *http.Request) {
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
	hashed := stream.HashItems(items, make([]stream.HashedItem, 0, len(items)))
	ctx, cancel := rt.reqCtx(r)
	defer cancel()
	rt.topoMu.RLock()
	defer rt.topoMu.RUnlock()
	t := rt.topology()
	for i := range hashed {
		if m := t.ownerHash(hashed[i].HSrc); m.down.Load() && (m.spill == nil || m.spill.atBudget()) {
			rt.retryAfter429(w, "inserted", 0, 0, int64(len(hashed)), m.primary)
			return
		}
	}
	u := rt.newUpload(ctx, t, rt.cfg.BatchSize)
	var rec []byte
	for i := range hashed {
		rec = stream.AppendHashedItem(rec[:0], hashed[i])
		u.route(hashed[i].HSrc, rec)
	}
	u.finish()
	u.reply(w, "inserted", nil)
}

// handleIngest streams a bulk body through the cluster. Content-Type
// selects how the body becomes records exactly as on a member: NDJSON
// (the default) lines are decoded, hashed and encoded; GSB1 records are
// scanned and forwarded byte for byte; anything else answers 415. From
// there one routing loop serves both planes: each record goes onto
// one long-lived member /ingest request per partition.
//
// Records bound for a down partition are absorbed into its spill log
// when one is configured (reported as "spilled" — delivered when the
// member recovers); otherwise they are counted dropped and the reply
// is 429 — mid-stream member failures downgrade the same way (the
// already-piped, unconfirmed prefix cannot be reconstructed for
// spilling), so a producer retries the whole upload after Retry-After;
// re-inserting the accepted prefix only adds weight the sketch
// semantics already tolerate (weights are cumulative observations),
// and exactly-once replay is what checkpoints are for.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
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
	batchSize := rt.cfg.BatchSize
	if raw := r.URL.Query().Get("batch"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > maxIngestBatch {
			httpError(w, http.StatusBadRequest, "batch must be an integer in [1,%d]", maxIngestBatch)
			return
		}
		batchSize = n
	}
	walk := walkNDJSON
	if binary {
		walk = walkGSB1
	}
	ctx, cancel := rt.reqCtx(r)
	defer cancel()
	// One topology snapshot routes the whole upload, under the read
	// fence so a handoff/cutover never interleaves with it (the fence
	// also guarantees the shadow confirmations are on the migration's
	// ledger before cutover can proceed).
	rt.topoMu.RLock()
	defer rt.topoMu.RUnlock()
	u := rt.newUpload(ctx, rt.topology(), batchSize)
	decodeErr := walk(r.Body, u.route)
	u.finish()
	u.reply(w, "ingested", decodeErr)
}

// walkNDJSON turns an NDJSON body into GSB1 records: each line is
// decoded (stream.DecodeItemLine), hashed once and encoded. emit gets
// the record's source hash and bytes, valid only during the call. The
// error names the line that failed.
func walkNDJSON(body io.Reader, emit func(hsrc uint64, rec []byte)) error {
	sc := stream.NewLineScanner(body)
	var rec []byte
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		it, err := stream.DecodeItemLine(raw)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		h := stream.HashItem(it)
		rec = stream.AppendHashedItem(rec[:0], h)
		emit(h.HSrc, rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %v", line+1, err)
	}
	return nil
}

// walkGSB1 walks a GSB1 body record by record: ScanHashedRecord yields
// the carried H(src) routing key and structurally vouches for the
// bytes without materializing an identifier string or hashing
// anything. emit gets each record, valid only during the call (the
// frame buffer is recycled). The error names the frame and record
// that failed.
func walkGSB1(body io.Reader, emit func(hsrc uint64, rec []byte)) error {
	fr := stream.NewFrameReader(body)
	fr.SetReuse(true)
	for {
		records, count := fr.Next()
		if records == nil {
			break
		}
		pos := 0
		for i := 0; i < count; i++ {
			hsrc, n, err := stream.ScanHashedRecord(records[pos:])
			if err != nil {
				return fmt.Errorf("frame %d record %d: %v", fr.Frames(), i+1, err)
			}
			emit(hsrc, records[pos:pos+n])
			pos += n
		}
		if pos != len(records) {
			return fmt.Errorf("frame %d holds %d bytes past its %d records",
				fr.Frames(), len(records)-pos, count)
		}
	}
	if err := fr.Err(); err != nil {
		return fmt.Errorf("frame %d: %v", fr.Frames()+1, err)
	}
	return nil
}

// upload is one write request's routing state: a member writer per
// live partition it touched, spill buffers for down partitions, the
// handoff double-write writers, and the tallies the reply reports.
type upload struct {
	rt        *Router
	ctx       context.Context
	t         *topology
	batchSize int

	writers map[*member]*memberWriter
	spills  map[*member]*spillBuf
	// Handoff double-writes ride dedicated per-gainer writers (never
	// the gainer's primary writer, whose confirmation count must stay
	// attributable to primary traffic), with per-(loser,gainer) counts
	// for the drop accounting.
	shadows    map[*member]*memberWriter
	shadowSent map[shadowKey]int64

	ingested, spilled, dropped int64
	downMember                 string
	hardErr                    error
}

// spillBuf batches a down partition's record payloads between spill
// appends — one fsync per batchSize records, not one per record.
type spillBuf struct {
	payloads [][]byte
	full     bool // budget hit: stop buffering, count the rest dropped
}

func (rt *Router) newUpload(ctx context.Context, t *topology, batchSize int) *upload {
	return &upload{rt: rt, ctx: ctx, t: t, batchSize: batchSize,
		writers: make(map[*member]*memberWriter, len(t.members)),
		spills:  make(map[*member]*spillBuf),
		shadows: make(map[*member]*memberWriter), shadowSent: make(map[shadowKey]int64)}
}

// route sends one validated record to its owner's member frame, or to
// the owner's spill when the partition is down, plus — during a
// handoff window — a copy to the key's future owner.
func (u *upload) route(hsrc uint64, rec []byte) {
	m := u.t.ownerHash(hsrc)
	mw := u.writers[m]
	if mw == nil {
		if m.down.Load() {
			u.spill(m, rec)
			return
		}
		mw = u.rt.openWriter(u.ctx, m, u.batchSize)
		u.writers[m] = mw
	}
	if mw.failed {
		u.dropped++
		return
	}
	if err := mw.write(rec); err != nil {
		// The member side tore the pipe: mark the partition down and
		// stop routing to it; every record it has not confirmed counts
		// dropped.
		u.rt.markDown(m, "ingest", err)
		u.downMember = m.primary
		u.dropped += mw.sent
		mw.sent = 0
		return
	}
	if g := u.t.shadowOwnerHash(hsrc); g != nil {
		sw := u.shadows[g]
		if sw == nil {
			sw = u.rt.openWriter(u.ctx, g, u.batchSize)
			u.shadows[g] = sw
		}
		if sw.failed {
			return // the migration is failing already
		}
		if err := sw.write(rec); err != nil {
			u.t.mig.fail(fmt.Errorf("handoff double-write to %s: %w", g.primary, err))
			return
		}
		u.shadowSent[shadowKey{loser: m, gainer: g}]++
	}
}

// spill buffers the record's GSS1 payload for m's spill log (copied:
// the record bytes are reused), or counts it dropped when m has no
// spill or the spill refused an earlier append.
func (u *upload) spill(m *member, rec []byte) {
	sb := u.spills[m]
	if sb == nil && m.spill != nil {
		sb = &spillBuf{}
		u.spills[m] = sb
	}
	if sb == nil || sb.full {
		u.dropped++
		u.downMember = m.primary
		return
	}
	sb.payloads = append(sb.payloads, append([]byte(nil), stream.HashedRecordPayload(rec)...))
	if len(sb.payloads) >= u.batchSize {
		sb.full = !u.flushSpill(m, sb)
	}
}

// flushSpill appends the buffered payloads to m's spill log and
// reports whether the log took them.
func (u *upload) flushSpill(m *member, sb *spillBuf) bool {
	n := int64(len(sb.payloads))
	if n == 0 {
		return true
	}
	err := m.spill.append(sb.payloads)
	sb.payloads = sb.payloads[:0]
	if err != nil {
		u.dropped += n
		u.downMember = m.primary
		return false
	}
	u.spilled += n
	return true
}

// finish flushes the spill buffers, closes every member request and
// tallies the replies, then settles the handoff double-writes.
func (u *upload) finish() {
	for m, sb := range u.spills {
		u.flushSpill(m, sb)
	}
	for _, mw := range u.writers {
		reply := mw.close()
		switch {
		case reply.err == nil:
			u.ingested += reply.ingested
			// Unconfirmed tail: whatever the member did not acknowledge
			// counts dropped.
			if !mw.failed && reply.ingested < mw.sent {
				u.dropped += mw.sent - reply.ingested
				u.downMember = mw.m.primary
			}
		case isTransport(reply.err):
			u.rt.markDown(mw.m, "ingest", reply.err)
			u.downMember = mw.m.primary
			u.dropped += mw.sent
		default:
			if u.hardErr == nil {
				u.hardErr = reply.err
			}
		}
	}
	// Anything but a full confirmation of a double-write fails the
	// MIGRATION (it rolls back), never the client request — the serving
	// owners already confirmed the primary copies.
	for g, sw := range u.shadows {
		reply := sw.close()
		if reply.err != nil || sw.failed || reply.ingested != sw.sent {
			err := reply.err
			if err == nil {
				err = fmt.Errorf("confirmed %d of %d items", reply.ingested, sw.sent)
			}
			u.t.mig.fail(fmt.Errorf("handoff double-write to %s: %w", g.primary, err))
			continue
		}
		for k, n := range u.shadowSent {
			if k.gainer == g {
				u.t.mig.noteShadow(k.loser, k.gainer, n)
			}
		}
	}
	if u.t.next != nil && (u.dropped > 0 || u.hardErr != nil) {
		u.t.mig.fail(fmt.Errorf("cluster: writes lost during handoff (member %s)", u.downMember))
	}
}

// reply answers the request from the upload's tallies; acceptedKey
// names the accepted count ("ingested" or "inserted").
func (u *upload) reply(w http.ResponseWriter, acceptedKey string, decodeErr error) {
	switch {
	case u.hardErr != nil:
		httpError(w, http.StatusBadGateway, "cluster: %v", u.hardErr)
	case decodeErr != nil:
		httpError(w, http.StatusBadRequest, "%v (%d items accepted)", decodeErr, u.ingested)
	case u.dropped > 0 || u.downMember != "":
		u.rt.retryAfter429(w, acceptedKey, u.ingested, u.spilled, u.dropped, u.downMember)
	default:
		res := map[string]interface{}{
			"mode": "cluster", acceptedKey: u.ingested, "members": len(u.writers)}
		if u.spilled > 0 {
			res["spilled"] = u.spilled
		}
		writeJSON(w, res)
	}
}

// memberWriter is one open GSB1 /ingest request to a member — the only
// way the router writes to a member. Records are re-framed onto a pipe
// as they arrive, a frame closing at the batch size or at the frame
// byte cap (stream.FrameFull, the rule BinaryBatchWriter follows), and
// the member decodes and applies concurrently: one member round trip
// per request, however many records flow through it.
type memberWriter struct {
	m      *member
	pw     *io.PipeWriter
	bw     *bufio.Writer
	batch  int    // records per frame
	hdr    []byte // frame-header scratch
	body   []byte // records of the open frame
	n      int    // records in the open frame
	sent   int64  // records written to this request
	failed bool   // a write tore the pipe; nothing more is sent
	done   chan ingestReply
}

type ingestReply struct {
	ingested int64
	err      error
}

// openWriter starts the member-side /ingest request feeding from a
// pipe. The member's reply is reported on done once it answers (or the
// request fails).
func (rt *Router) openWriter(ctx context.Context, m *member, batchSize int) *memberWriter {
	// The write buffer absorbs roughly one member-side decode batch, so
	// the router keeps streaming while the member holds its insert lock
	// instead of stalling the connection on every batch boundary.
	pr, pw := io.Pipe()
	mw := &memberWriter{m: m, pw: pw, bw: bufio.NewWriterSize(pw, 64<<10),
		batch: batchSize, done: make(chan ingestReply, 1)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.primary+"/ingest", pr)
	if err != nil {
		// Tear the pipe too: with no request goroutine reading pr, a
		// later write (or the final flush) would otherwise block
		// forever.
		pr.CloseWithError(err)
		mw.done <- ingestReply{err: err}
		return mw
	}
	req.Header.Set("Content-Type", stream.ContentTypeBinary)
	if id := telemetry.RequestID(ctx); id != "" {
		req.Header.Set(telemetry.HeaderRequestID, id)
	}
	magic := stream.BinaryMagic()
	_, _ = mw.bw.Write(magic[:]) // buffered; a dead pipe surfaces at the first flush
	go rt.postIngest(req, pr, m, mw.done)
	return mw
}

// write appends one validated record, first emitting the open frame
// when the record would not fit it.
func (mw *memberWriter) write(rec []byte) error {
	mw.sent++
	if stream.FrameFull(mw.n, len(mw.body), len(rec), mw.batch) {
		if err := mw.flushFrame(); err != nil {
			mw.failed = true
			return err
		}
	}
	mw.body = append(mw.body, rec...)
	mw.n++
	return nil
}

// flushFrame emits the open frame — header plus the record bytes,
// identical to a stream.BinaryBatchWriter frame.
func (mw *memberWriter) flushFrame() error {
	if mw.n == 0 {
		return nil
	}
	mw.hdr = stream.AppendFrameHeader(mw.hdr[:0], mw.n, len(mw.body))
	if _, err := mw.bw.Write(mw.hdr); err != nil {
		return err
	}
	if _, err := mw.bw.Write(mw.body); err != nil {
		return err
	}
	mw.body, mw.n = mw.body[:0], 0
	return nil
}

// close ends the request — flushing the open frame unless a write
// already failed — and waits for the member's reply.
func (mw *memberWriter) close() ingestReply {
	if !mw.failed {
		err := mw.flushFrame()
		if err == nil {
			err = mw.bw.Flush()
		}
		if err == nil {
			mw.pw.Close()
		} else {
			mw.pw.CloseWithError(err)
		}
	}
	return <-mw.done
}

// postIngest issues one member-side /ingest request feeding from pr
// and reports the member's reply on done.
func (rt *Router) postIngest(req *http.Request, pr *io.PipeReader, m *member, done chan ingestReply) {
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		// Tear the pipe so the writer side stops blocking; the router
		// counts this partition's records as unconfirmed.
		pr.CloseWithError(err)
		done <- ingestReply{err: transportError{err}}
		return
	}
	defer resp.Body.Close()
	var res struct {
		Ingested int64 `json:"ingested"`
	}
	if resp.StatusCode != http.StatusOK {
		slurp, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		pr.CloseWithError(fmt.Errorf("member status %d", resp.StatusCode))
		done <- ingestReply{err: fmt.Errorf("member %s /ingest returned %d: %s",
			m.primary, resp.StatusCode, bytes.TrimSpace(slurp))}
		return
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		done <- ingestReply{err: err}
		return
	}
	done <- ingestReply{ingested: res.Ingested}
}

// post delivers a hashed batch to m as one GSB1 /ingest request and
// returns how many items the member confirmed — the write primitive of
// spill replay and migration copy.
func (rt *Router) post(ctx context.Context, m *member, items []stream.HashedItem) (int64, error) {
	mw := rt.openWriter(ctx, m, rt.cfg.BatchSize)
	var rec []byte
	for i := range items {
		rec = stream.AppendHashedItem(rec[:0], items[i])
		if mw.write(rec) != nil {
			break
		}
	}
	reply := mw.close()
	return reply.ingested, reply.err
}
