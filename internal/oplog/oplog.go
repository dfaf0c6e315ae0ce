// Package oplog is a segmented append-only log of stream items — the
// replication and recovery substrate of the service tier. Primaries
// append every applied insert/ingest batch before acknowledging it, so
// crash recovery is the newest checkpoint plus a log replay from its
// sequence number, and followers tail deltas from an offset instead of
// re-fetching whole snapshots. The cluster router uses the same log as
// a durable spill buffer for writes bound to a down partition.
//
// On-disk layout: one directory of segment files named
// seg-<firstSeq:016d>.log. Each segment is
//
//	magic    [4]byte "GLG1"
//	firstSeq uint64 LE (must match the name; detects renamed files)
//	records: for each item
//	  length uint32 LE (payload bytes)
//	  crc    uint32 LE (IEEE CRC-32 of the payload)
//	  payload (stream.AppendItem encoding)
//
// Sequence numbers are item ordinals: the i-th item ever appended has
// seq i (0-based), and a segment's name is the seq of its first record.
// A record is the unit of integrity (one CRC per item), a segment the
// unit of retention. Appends go to the last segment; when it exceeds
// SegmentBytes it is sealed and a new one starts. Retain(seq) removes
// sealed segments that lie entirely below seq — the caller keys it to
// the newest durable checkpoint, so the log never outgrows what
// recovery still needs.
//
// Durability follows a group-commit discipline: appends are written
// (one write syscall per batch) immediately, but fsync is batched —
// at most one sync per SyncEvery of wall time, plus one on rotation
// and Close. A crash can therefore lose up to SyncEvery of acked
// appends; Open truncates whatever torn tail the crash left behind and
// replays cleanly from there. SyncEvery <= 0 syncs every append.
package oplog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/stream"
)

var segMagic = [4]byte{'G', 'L', 'G', '1'}

const (
	headerLen     = 12      // magic + firstSeq
	recHeaderLen  = 8       // length + crc
	maxRecordLen  = 4 << 20 // two max-length identifiers plus varints, with slack
	indexEvery    = 512     // records per sparse-offset index entry
	defaultSegLen = 8 << 20
)

var segName = regexp.MustCompile(`^seg-(\d{16})\.log$`)

func segFile(firstSeq uint64) string {
	return fmt.Sprintf("seg-%016d.log", firstSeq)
}

// ErrRetired reports a read from an offset whose segment has been
// removed by retention (or lost to a forward gap): the items below the
// oldest retained sequence are only available via a snapshot.
var ErrRetired = errors.New("oplog: offset retired; fall back to a snapshot")

// ErrFuture reports a read from an offset beyond the end of the log —
// a follower that outran the primary it tails (typically because the
// primary restarted with a fresh log).
var ErrFuture = errors.New("oplog: offset beyond end of log")

// Options configures Open.
type Options struct {
	// Dir is the log directory; created if missing.
	Dir string
	// SegmentBytes is the rotation threshold (default 8 MiB). Reads and
	// retention work at segment granularity, so smaller segments mean
	// finer retention but more files.
	SegmentBytes int64
	// SyncEvery is the fsync batching window: an append syncs only when
	// the previous sync is at least this old (plus always on rotation
	// and Close). <= 0 syncs every append. The window is the group-
	// commit durability trade: a crash can lose up to SyncEvery of
	// acknowledged appends, which Open's torn-tail truncation absorbs.
	SyncEvery time.Duration
	// Logf receives warnings (torn tails truncated, invalid segments
	// dropped); nil discards them.
	Logf func(string, ...interface{})
}

// Stats is a point-in-time snapshot of the log, served by the HTTP
// tier's stats endpoints.
type Stats struct {
	Segments  int    `json:"segments"`
	OldestSeq uint64 `json:"oldest_seq"`
	NextSeq   uint64 `json:"next_seq"`
	SizeBytes int64  `json:"size_bytes"`

	AppendedItems   int64 `json:"appended_items"`
	AppendedBytes   int64 `json:"appended_bytes"`
	Syncs           int64 `json:"syncs"`
	Rotations       int64 `json:"rotations"`
	RetiredSegments int64 `json:"retired_segments"`
}

// segment is one log file. For the active (last) segment, count/size
// grow under the log mutex; sealed segments are immutable.
type segment struct {
	firstSeq uint64
	path     string
	count    uint64  // records
	size     int64   // committed bytes (records fully written)
	offsets  []int64 // byte offset of record i*indexEvery, for seeks
}

func (s *segment) end() uint64 { return s.firstSeq + s.count }

// Log is a segmented append-only item log. All methods are safe for
// concurrent use; reads run against committed bytes without blocking
// appends for the duration of the file I/O.
type Log struct {
	opt Options

	mu       sync.Mutex
	segs     []*segment // oldest first; last is active
	active   *os.File
	lastSync time.Time
	scratch  []byte
	stats    Stats
	closed   bool
}

// Open scans dir, truncates any torn tail the last crash left, and
// readies the log for appends. Invalid trailing segments (torn during
// rotation, renamed, or out of sequence) are dropped with a warning:
// an append-only log trusts its longest valid prefix.
func Open(opt Options) (*Log, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("oplog: Options.Dir is required")
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegLen
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...interface{}) {}
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	l := &Log{opt: opt}
	if err := l.scanDir(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		if err := l.startSegmentLocked(0); err != nil {
			return nil, err
		}
	} else {
		// Reopen the last segment for appending.
		last := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("oplog: reopening %s: %w", last.path, err)
		}
		if _, err := f.Seek(last.size, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("oplog: seeking %s: %w", last.path, err)
		}
		l.active = f
	}
	l.refreshGauges()
	return l, nil
}

// scanDir loads every segment, validating headers, sequence continuity
// and record integrity. The first invalid point truncates: a torn tail
// in the last segment is cut at the last good record, and any segment
// that fails validation drops together with everything after it.
func (l *Log) scanDir() error {
	entries, err := os.ReadDir(l.opt.Dir)
	if err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	var cands []segCand
	for _, e := range entries {
		m := segName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		seq, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue
		}
		cands = append(cands, segCand{seq, filepath.Join(l.opt.Dir, e.Name())})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].firstSeq < cands[j].firstSeq })
	for i, c := range cands {
		if n := len(l.segs); n > 0 && c.firstSeq != l.segs[n-1].end() {
			l.dropFrom(cands[i:], "sequence gap after %d", l.segs[n-1].end())
			break
		}
		seg, err := scanSegment(c.path, c.firstSeq, i == len(cands)-1, l.opt.Logf)
		if err != nil {
			l.dropFrom(cands[i:], "%v", err)
			break
		}
		l.segs = append(l.segs, seg)
	}
	return nil
}

// segCand is a directory entry that looks like a segment, before
// validation.
type segCand struct {
	firstSeq uint64
	path     string
}

// dropFrom removes invalid trailing segment files so appends restart
// from a clean prefix.
func (l *Log) dropFrom(cands []segCand, format string, args ...interface{}) {
	l.opt.Logf("oplog: dropping %d segment(s) from %s: %s",
		len(cands), cands[0].path, fmt.Sprintf(format, args...))
	for _, c := range cands {
		if err := os.Remove(c.path); err != nil {
			l.opt.Logf("oplog: removing %s: %v", c.path, err)
		}
	}
}

// scanSegment validates one segment file. For the last (appendable)
// segment a torn tail is truncated in place; for sealed segments any
// corruption is an error (the caller drops the segment).
func scanSegment(path string, firstSeq uint64, last bool, logf func(string, ...interface{})) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	defer f.Close()
	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%s: short header: %w", path, err)
	}
	if [4]byte(hdr[:4]) != segMagic {
		return nil, fmt.Errorf("%s: bad magic", path)
	}
	if got := binary.LittleEndian.Uint64(hdr[4:]); got != firstSeq {
		return nil, fmt.Errorf("%s: header seq %d does not match name", path, got)
	}
	seg := &segment{firstSeq: firstSeq, path: path, size: headerLen}
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	fileSize := info.Size()
	var rec [recHeaderLen]byte
	payload := make([]byte, 0, 256)
	torn := func(why string) (*segment, error) {
		if !last {
			return nil, fmt.Errorf("%s: %s at record %d (sealed segment)", path, why, seg.count)
		}
		logf("oplog: %s: truncating torn tail (%s) at offset %d (%d records kept)",
			path, why, seg.size, seg.count)
		if err := os.Truncate(path, seg.size); err != nil {
			return nil, fmt.Errorf("%s: truncating torn tail: %w", path, err)
		}
		return seg, nil
	}
	for seg.size < fileSize {
		if fileSize-seg.size < recHeaderLen {
			return torn("short record header")
		}
		if _, err := io.ReadFull(f, rec[:]); err != nil {
			return torn("unreadable record header")
		}
		n := binary.LittleEndian.Uint32(rec[:4])
		crc := binary.LittleEndian.Uint32(rec[4:])
		if n > maxRecordLen {
			return torn("oversized record")
		}
		if fileSize-seg.size-recHeaderLen < int64(n) {
			return torn("short payload")
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return torn("unreadable payload")
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return torn("crc mismatch")
		}
		if _, _, err := stream.DecodeItem(payload); err != nil {
			return torn("undecodable payload")
		}
		if seg.count%indexEvery == 0 {
			seg.offsets = append(seg.offsets, seg.size)
		}
		seg.size += recHeaderLen + int64(n)
		seg.count++
	}
	return seg, nil
}

// startSegmentLocked seals the current active file (if any) and begins
// a new segment whose first record will carry firstSeq.
func (l *Log) startSegmentLocked(firstSeq uint64) error {
	if l.active != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return err
		}
		l.active = nil
		l.stats.Rotations++
	}
	path := filepath.Join(l.opt.Dir, segFile(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("oplog: creating segment: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:4], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[4:], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("oplog: writing segment header: %w", err)
	}
	// The header is durable before any record can be acked from it, so
	// a crash right after rotation leaves a valid empty segment, not a
	// headerless file the next Open must drop.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	l.active = f
	l.segs = append(l.segs, &segment{firstSeq: firstSeq, path: path, size: headerLen})
	return nil
}

func (l *Log) activeSeg() *segment { return l.segs[len(l.segs)-1] }

// Append writes one record per item and returns the sequence number of
// the first item and the log's next sequence after the batch. The
// whole batch lands in one write; the fsync policy decides whether the
// call also syncs (see Options.SyncEvery).
func (l *Log) Append(items []stream.Item) (first, next uint64, err error) {
	return l.appendPayloads(len(items), func(i int, buf []byte) []byte {
		return stream.AppendItem(buf, items[i])
	})
}

// AppendHashed is Append for a hashed batch: the records hold the
// plain items (the hashes are derived, not logged), encoded straight
// from the batch with no intermediate []stream.Item copy.
func (l *Log) AppendHashed(items []stream.HashedItem) (first, next uint64, err error) {
	return l.appendPayloads(len(items), func(i int, buf []byte) []byte {
		return stream.AppendItem(buf, items[i].Item)
	})
}

// AppendEncoded writes one record per already-encoded item payload —
// the bytes a stream.AppendItem call would have produced, as carried
// verbatim inside binary ingest frames. It is byte-identical on disk
// to Append on the decoded items, minus the decode and re-encode: the
// record header (length + CRC) is computed here, so a corrupted
// payload is caught by the same integrity machinery either way.
func (l *Log) AppendEncoded(payloads [][]byte) (first, next uint64, err error) {
	return l.appendPayloads(len(payloads), func(i int, buf []byte) []byte {
		return append(buf, payloads[i]...)
	})
}

// appendPayloads is the shared append core: payload appends record i's
// payload bytes to buf. Record headers, sparse-index marks, the single
// write syscall, rollback, sync policy and rotation are identical for
// both entry points.
func (l *Log) appendPayloads(n int, payload func(i int, buf []byte) []byte) (first, next uint64, err error) {
	if n == 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		seq := l.nextSeqLocked()
		return seq, seq, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, fmt.Errorf("oplog: closed")
	}
	seg := l.activeSeg()
	first = seg.end()

	buf := l.scratch[:0]
	type recMark struct {
		off int64 // offset within the segment file
	}
	var marks []recMark
	off := seg.size
	for i := 0; i < n; i++ {
		if (seg.count+uint64(i))%indexEvery == 0 {
			marks = append(marks, recMark{off})
		}
		hdrAt := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		buf = payload(i, buf)
		p := buf[hdrAt+recHeaderLen:]
		binary.LittleEndian.PutUint32(buf[hdrAt:], uint32(len(p)))
		binary.LittleEndian.PutUint32(buf[hdrAt+4:], crc32.ChecksumIEEE(p))
		off += int64(recHeaderLen + len(p))
	}
	l.scratch = buf[:0]
	if _, err := l.active.Write(buf); err != nil {
		// The file may now hold a torn batch; roll it back so committed
		// state and disk agree (the next Open would truncate it anyway).
		if terr := l.active.Truncate(seg.size); terr == nil {
			l.active.Seek(seg.size, io.SeekStart)
		}
		return 0, 0, fmt.Errorf("oplog: append: %w", err)
	}
	for _, m := range marks {
		seg.offsets = append(seg.offsets, m.off)
	}
	seg.size = off
	seg.count += uint64(n)
	l.stats.AppendedItems += int64(n)
	l.stats.AppendedBytes += int64(len(buf))

	if l.opt.SyncEvery <= 0 || time.Since(l.lastSync) >= l.opt.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, 0, err
		}
	}
	if seg.size >= l.opt.SegmentBytes {
		if err := l.startSegmentLocked(seg.end()); err != nil {
			return 0, 0, err
		}
	}
	l.refreshGauges()
	return first, seg.end(), nil
}

func (l *Log) syncLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("oplog: sync: %w", err)
	}
	l.lastSync = time.Now()
	l.stats.Syncs++
	return nil
}

// Sync forces an fsync of the active segment — the durable point for
// callers that need one now rather than within SyncEvery.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// NextSeq returns the sequence the next appended item will get; items
// [OldestSeq, NextSeq) are currently readable.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeqLocked()
}

func (l *Log) nextSeqLocked() uint64 { return l.activeSeg().end() }

// OldestSeq returns the first sequence still retained.
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].firstSeq
}

// Rotate seals the active segment so that Retain can retire everything
// appended so far. A fresh empty segment takes over.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("oplog: closed")
	}
	if l.activeSeg().count == 0 {
		return nil // already empty; nothing to seal
	}
	if err := l.startSegmentLocked(l.nextSeqLocked()); err != nil {
		return err
	}
	l.refreshGauges()
	return nil
}

// Retain removes sealed segments that lie entirely below seq. Callers
// key seq to the newest durable checkpoint: everything below it is
// recoverable from the checkpoint, so the log no longer needs it. The
// active segment always stays.
func (l *Log) Retain(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := 0
	for keep < len(l.segs)-1 && l.segs[keep].end() <= seq {
		if err := os.Remove(l.segs[keep].path); err != nil {
			l.opt.Logf("oplog: retiring %s: %v", l.segs[keep].path, err)
			break
		}
		l.stats.RetiredSegments++
		keep++
	}
	if keep > 0 {
		l.segs = append(l.segs[:0], l.segs[keep:]...)
	}
	l.refreshGauges()
}

// SkipTo fast-forwards an empty-or-behind log to seq: used when a
// checkpoint proves newer than the log's end (the log directory was
// lost or swapped), so new appends get sequence numbers the checkpoint
// does not already cover. It is an error when the log already holds
// records at or beyond seq.
func (l *Log) SkipTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("oplog: closed")
	}
	if next := l.nextSeqLocked(); next > seq {
		return fmt.Errorf("oplog: SkipTo(%d) behind next seq %d", seq, next)
	} else if next == seq {
		return nil
	}
	if err := l.startSegmentLocked(seq); err != nil {
		return err
	}
	// The empty pre-skip segments serve nothing; retire them so
	// OldestSeq reflects the skip.
	keep := 0
	for keep < len(l.segs)-1 {
		if err := os.Remove(l.segs[keep].path); err != nil {
			l.opt.Logf("oplog: retiring %s: %v", l.segs[keep].path, err)
			break
		}
		keep++
	}
	if keep > 0 {
		l.segs = append(l.segs[:0], l.segs[keep:]...)
	}
	l.refreshGauges()
	return nil
}

// refreshGauges recomputes the point-in-time stats fields. Callers
// hold mu.
func (l *Log) refreshGauges() {
	l.stats.Segments = len(l.segs)
	l.stats.OldestSeq = l.segs[0].firstSeq
	l.stats.NextSeq = l.nextSeqLocked()
	var size int64
	for _, s := range l.segs {
		size += s.size
	}
	l.stats.SizeBytes = size
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close syncs and closes the active segment. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// segView is the immutable slice of segment state a read works
// against: committed count/size captured under the lock, file I/O
// done without it.
type segView struct {
	firstSeq uint64
	path     string
	count    uint64
	size     int64
	offsets  []int64
}

// view snapshots the committed segment list. The offsets slice is
// shared with the appender, but appends only ever extend it past the
// captured length, so indexes below len are stable.
func (l *Log) view() []segView {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]segView, len(l.segs))
	for i, s := range l.segs {
		out[i] = segView{firstSeq: s.firstSeq, path: s.path,
			count: s.count, size: s.size, offsets: s.offsets[:len(s.offsets):len(s.offsets)]}
	}
	return out
}

// ReadFrom streams up to maxItems committed records starting at
// sequence from, calling emit for each, and returns the next sequence
// to read. from below the retained range returns ErrRetired; from
// beyond the committed end returns ErrFuture; from exactly at the end
// returns (from, nil) with no emissions. An emit error aborts the read
// and is returned as-is.
func (l *Log) ReadFrom(from uint64, maxItems int, emit func(it stream.Item) error) (uint64, error) {
	if maxItems <= 0 {
		maxItems = 1 << 16
	}
	segs := l.view()
	if from < segs[0].firstSeq {
		return from, ErrRetired
	}
	last := segs[len(segs)-1]
	if from > last.firstSeq+last.count {
		return from, ErrFuture
	}
	// Locate the segment holding from.
	i := sort.Search(len(segs), func(i int) bool { return segs[i].firstSeq > from }) - 1
	if from > segs[i].firstSeq+segs[i].count {
		// from falls in a forward gap left by SkipTo: those records never
		// existed; only a snapshot covers them.
		return from, ErrRetired
	}
	seq := from
	for ; i < len(segs) && maxItems > 0; i++ {
		n, err := readSegment(segs[i], seq, maxItems, emit)
		seq += uint64(n)
		maxItems -= n
		if err != nil {
			if os.IsNotExist(err) {
				// Retired between view and open; the caller retries and
				// gets a consistent ErrRetired.
				return from, ErrRetired
			}
			return seq, err
		}
		if seq < segs[i].firstSeq+segs[i].count {
			break // maxItems exhausted mid-segment
		}
	}
	return seq, nil
}

// readSegment emits records [seq, …) of one segment view, bounded by
// maxItems and the committed size, returning how many were emitted.
func readSegment(sv segView, seq uint64, maxItems int, emit func(it stream.Item) error) (int, error) {
	if seq >= sv.firstSeq+sv.count {
		return 0, nil
	}
	f, err := os.Open(sv.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rel := seq - sv.firstSeq
	pos := int64(headerLen)
	skip := rel
	if k := int(rel / indexEvery); k < len(sv.offsets) {
		pos = sv.offsets[k]
		skip = rel % indexEvery
	}
	if _, err := f.Seek(pos, io.SeekStart); err != nil {
		return 0, err
	}
	emitted := 0
	var rec [recHeaderLen]byte
	payload := make([]byte, 0, 256)
	remaining := sv.firstSeq + sv.count - seq + skip
	for remaining > 0 && emitted < maxItems {
		if pos+recHeaderLen > sv.size {
			return emitted, fmt.Errorf("oplog: %s: committed size %d cut a record short", sv.path, sv.size)
		}
		if _, err := io.ReadFull(f, rec[:]); err != nil {
			return emitted, fmt.Errorf("oplog: %s: %w", sv.path, err)
		}
		n := binary.LittleEndian.Uint32(rec[:4])
		crc := binary.LittleEndian.Uint32(rec[4:])
		if n > maxRecordLen || pos+recHeaderLen+int64(n) > sv.size {
			return emitted, fmt.Errorf("oplog: %s: invalid record at offset %d", sv.path, pos)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return emitted, fmt.Errorf("oplog: %s: %w", sv.path, err)
		}
		pos += recHeaderLen + int64(n)
		if skip > 0 {
			skip--
			remaining--
			continue
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return emitted, fmt.Errorf("oplog: %s: crc mismatch at offset %d", sv.path, pos)
		}
		it, _, err := stream.DecodeItem(payload)
		if err != nil {
			return emitted, fmt.Errorf("oplog: %s: %w", sv.path, err)
		}
		if err := emit(it); err != nil {
			return emitted, err
		}
		emitted++
		remaining--
	}
	return emitted, nil
}

// Cursor is a pull-style reader over the log, adapting ReadFrom to
// stream.Source for replay into a sketch (see sketch.Replay).
type Cursor struct {
	l    *Log
	next uint64
	buf  []stream.Item
	pos  int
	err  error
	done bool
}

// Cursor returns a Source positioned at from.
func (l *Log) Cursor(from uint64) *Cursor {
	return &Cursor{l: l, next: from}
}

// Next implements stream.Source. It refills from the log in chunks;
// check Err after the stream ends.
func (c *Cursor) Next() (stream.Item, bool) {
	for c.pos >= len(c.buf) {
		if c.done || c.err != nil {
			return stream.Item{}, false
		}
		c.buf = c.buf[:0]
		c.pos = 0
		next, err := c.l.ReadFrom(c.next, 4096, func(it stream.Item) error {
			c.buf = append(c.buf, it)
			return nil
		})
		if err != nil {
			c.err = err
			return stream.Item{}, false
		}
		if next == c.next {
			c.done = true
			return stream.Item{}, false
		}
		c.next = next
	}
	it := c.buf[c.pos]
	c.pos++
	return it, true
}

// Err reports the first read error; nil after a clean end.
func (c *Cursor) Err() error { return c.err }

// Seq returns the sequence of the next unread record.
func (c *Cursor) Seq() uint64 { return c.next - uint64(len(c.buf)-c.pos) }
