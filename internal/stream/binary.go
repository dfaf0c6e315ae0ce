package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Binary batch wire format ("GSB1") — the hash-once ingest plane.
//
//	magic   [4]byte  "GSB1"
//	frames: until EOF
//	  frameLen uvarint        // byte length of the frame body
//	  body:
//	    count  uvarint        // records in this frame
//	    records × count:
//	      hsrc uint64 LE      // hashing.Hash64(src), full 64 bits
//	      hdst uint64 LE      // hashing.Hash64(dst)
//	      fps  uint32 LE      // PackFingerprints(hsrc, hdst)
//	      payload             // the GSS1 record layout (AppendItem)
//
// The producer hashes each identifier exactly once and every layer
// downstream — cluster router, server, shard, generation, matrix —
// reuses the carried hashes. The record tail after the 20-byte hash
// prefix is byte-for-byte the GSS1 record (and therefore the
// internal/oplog payload format), so a server can append accepted
// records to its operation log, and a router can spill them for a down
// partition, without a decode/re-encode round trip.
//
// The length prefix makes a frame the unit of both streaming (one
// frame is buffered at a time, never the whole body) and atomicity (a
// frame is fully validated before any of its items is vouched for).
// The fps field doubles as an integrity check: a record whose packed
// fingerprints disagree with its carried hashes is rejected, so a
// corrupt or misframed prefix cannot smuggle wrong hashes past the
// edge.

// ContentTypeBinary is the /ingest Content-Type selecting this format.
const ContentTypeBinary = "application/x-gss-batch"

// IngestPlane resolves an /ingest Content-Type to an ingest plane:
// NDJSON (the default — bare requests, x-ndjson, json and curl's
// untyped --data-binary default all mean the text plane) or this GSB1
// binary batch plane. Unknown types are a
// deliberate !ok so a client posting, say, protobuf learns immediately
// instead of producing line-1 parse errors. Shared by every ingest
// front door (server and cluster router) so the content-type table
// cannot drift between them.
func IngestPlane(contentType string) (binary bool, ok bool) {
	ct := contentType
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i] // drop parameters (charset=...)
	}
	ct = strings.ToLower(strings.TrimSpace(ct))
	switch ct {
	case "", "application/x-ndjson", "application/json",
		// curl's --data-binary default; `curl --data-binary @file /ingest`
		// is the documented quickstart and must keep working untyped.
		"application/x-www-form-urlencoded":
		return false, true
	case ContentTypeBinary:
		return true, true
	default:
		return false, false
	}
}

var batchMagic = [4]byte{'G', 'S', 'B', '1'}

// ErrBadBatchMagic is returned when a binary batch stream does not
// start with the GSB1 header.
var ErrBadBatchMagic = errors.New("stream: bad magic, not a GSB1 batch stream")

const (
	// hashedPrefixLen is the fixed hash prefix of a record: hsrc,
	// hdst, fps.
	hashedPrefixLen = 8 + 8 + 4
	// minHashedRecordLen is the smallest possible record: the hash
	// prefix plus five one-byte varints (empty src, empty dst, time 0,
	// weight 0, label 0). Frame validation uses it to bound the batch
	// allocation a forged count could otherwise request.
	minHashedRecordLen = hashedPrefixLen + 5
	// maxFrameBytes bounds one frame body, keeping the maxIDLen
	// discipline: a forged frame length allocates at most this much.
	maxFrameBytes = 8 << 20
	// maxFrameItems bounds one frame's record count (the same cap the
	// server puts on a decode batch).
	maxFrameItems = 1 << 16
)

// BinaryMagic returns the GSB1 stream header bytes.
func BinaryMagic() [4]byte { return batchMagic }

// AppendHashedItem appends the binary record encoding of it to buf:
// the 20-byte hash prefix followed by the GSS1 payload. The caller's
// FPs field is written as-is (HashItem fills it consistently; the
// decoder rejects a mismatched pair).
func AppendHashedItem(buf []byte, it HashedItem) []byte {
	var p [hashedPrefixLen]byte
	binary.LittleEndian.PutUint64(p[0:8], it.HSrc)
	binary.LittleEndian.PutUint64(p[8:16], it.HDst)
	binary.LittleEndian.PutUint32(p[16:20], it.FPs)
	buf = append(buf, p[:]...)
	return AppendItem(buf, it.Item)
}

// DecodeHashedItem decodes one AppendHashedItem record from the front
// of b, returning the item and the bytes consumed. The packed
// fingerprints must match the carried hashes.
func DecodeHashedItem(b []byte) (HashedItem, int, error) {
	if len(b) < hashedPrefixLen {
		return HashedItem{}, 0, fmt.Errorf("stream: truncated record: %w", io.ErrUnexpectedEOF)
	}
	var it HashedItem
	it.HSrc = binary.LittleEndian.Uint64(b[0:8])
	it.HDst = binary.LittleEndian.Uint64(b[8:16])
	it.FPs = binary.LittleEndian.Uint32(b[16:20])
	if it.FPs != PackFingerprints(it.HSrc, it.HDst) {
		return HashedItem{}, 0, fmt.Errorf("stream: record fingerprints %#x disagree with carried hashes", it.FPs)
	}
	item, n, err := DecodeItem(b[hashedPrefixLen:])
	if err != nil {
		return HashedItem{}, 0, err
	}
	it.Item = item
	return it, hashedPrefixLen + n, nil
}

// HashedRecordPayload returns the GSS1 payload view of one validated
// binary record — the bytes after the fixed hash prefix, which are
// exactly what an operation log or a router's spill log appends, with
// no decode/re-encode round trip. The record must have been vouched
// for by ScanHashedRecord or DecodeHashedItem first.
func HashedRecordPayload(rec []byte) []byte { return rec[hashedPrefixLen:] }

// ScanHashedRecord is the router's fast path over one record: it
// extracts the carried source hash (the routing key) and structurally
// validates the full record — length prefixes bounded by maxIDLen,
// varints well-formed, fingerprints consistent with the hashes —
// without materializing the identifier strings or hashing anything.
// It accepts exactly the records DecodeHashedItem accepts (pinned by
// FuzzBinaryBatchDecode), so a frame forwarded verbatim after a scan
// will be accepted by the member's full decoder.
func ScanHashedRecord(b []byte) (hsrc uint64, n int, err error) {
	if len(b) < hashedPrefixLen {
		return 0, 0, fmt.Errorf("stream: truncated record: %w", io.ErrUnexpectedEOF)
	}
	hsrc = binary.LittleEndian.Uint64(b[0:8])
	hdst := binary.LittleEndian.Uint64(b[8:16])
	fps := binary.LittleEndian.Uint32(b[16:20])
	if fps != PackFingerprints(hsrc, hdst) {
		return 0, 0, fmt.Errorf("stream: record fingerprints %#x disagree with carried hashes", fps)
	}
	pos := hashedPrefixLen
	for i := 0; i < 2; i++ { // src, dst
		l, k := binary.Uvarint(b[pos:])
		if k <= 0 {
			return 0, 0, fmt.Errorf("stream: truncated record: %w", io.ErrUnexpectedEOF)
		}
		if l > maxIDLen {
			return 0, 0, fmt.Errorf("stream: unreasonable string length %d", l)
		}
		pos += k
		if uint64(len(b)-pos) < l {
			return 0, 0, fmt.Errorf("stream: truncated record: %w", io.ErrUnexpectedEOF)
		}
		pos += int(l)
	}
	for i := 0; i < 2; i++ { // time, weight
		if _, k := binary.Varint(b[pos:]); k <= 0 {
			return 0, 0, fmt.Errorf("stream: truncated record: %w", io.ErrUnexpectedEOF)
		} else {
			pos += k
		}
	}
	label, k := binary.Uvarint(b[pos:])
	if k <= 0 {
		return 0, 0, fmt.Errorf("stream: truncated record: %w", io.ErrUnexpectedEOF)
	}
	if label > 1<<32-1 {
		return 0, 0, fmt.Errorf("stream: label %d overflows uint32", label)
	}
	pos += k
	return hsrc, pos, nil
}

// maxFrameRecordBytes is the records share of a frame body: the body
// also holds the record-count varint, at most 3 bytes for a count up
// to maxFrameItems.
const maxFrameRecordBytes = maxFrameBytes - 3

// FrameFull is the one frame-cut rule every GSB1 frame writer shares
// (BinaryBatchWriter, the cluster router's member frames): a frame
// holding count records in recordsLen bytes must be emitted before a
// recLen-byte record joins it once it holds maxCount records (at most
// the decoders' maxFrameItems) or the record would push its body past
// the decoders' maxFrameBytes. An empty frame takes any record: one
// record is at most two maxIDLen strings plus a few varints, far below
// the byte cap.
func FrameFull(count, recordsLen, recLen, maxCount int) bool {
	if maxCount < 1 || maxCount > maxFrameItems {
		maxCount = maxFrameItems
	}
	return count > 0 && (count >= maxCount || recordsLen+recLen > maxFrameRecordBytes)
}

// AppendFrameHeader appends a GSB1 frame header — the frame length and
// the record count — for a body holding count records in recordsLen
// bytes. Callers that assemble frames from already-encoded records
// (the cluster router re-framing per partition) write header + records
// and get a frame identical to one the BinaryBatchWriter produces.
func AppendFrameHeader(dst []byte, count, recordsLen int) []byte {
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], uint64(count))
	dst = binary.AppendUvarint(dst, uint64(cn+recordsLen))
	return append(dst, cnt[:cn]...)
}

// BinaryBatchWriter encodes hashed batches as a GSB1 stream. One
// WriteBatch is one frame — the consumer-side batch granularity —
// except that batches past the frame caps split transparently.
type BinaryBatchWriter struct {
	w       *bufio.Writer
	body    []byte // records of the open frame
	rec     []byte // one-record scratch
	hdr     []byte // frame-header scratch
	count   int
	started bool
}

// NewBinaryBatchWriter returns a writer emitting to w. The magic is
// written on the first frame (or by Flush for an empty stream).
func NewBinaryBatchWriter(w io.Writer) *BinaryBatchWriter {
	return &BinaryBatchWriter{w: bufio.NewWriter(w)}
}

// WriteBatch writes items as one frame (splitting only past the frame
// caps). An empty batch writes nothing.
func (bw *BinaryBatchWriter) WriteBatch(items []HashedItem) error {
	for i := range items {
		if err := bw.add(items[i]); err != nil {
			return err
		}
	}
	return bw.flushFrame()
}

// WriteItems hashes items and writes them as one frame — the
// convenience path for producers starting from plain items.
func (bw *BinaryBatchWriter) WriteItems(items []Item) error {
	for i := range items {
		if err := bw.add(HashItem(items[i])); err != nil {
			return err
		}
	}
	return bw.flushFrame()
}

// add appends one record to the open frame, first emitting the frame
// if the record would not fit.
func (bw *BinaryBatchWriter) add(it HashedItem) error {
	bw.rec = AppendHashedItem(bw.rec[:0], it)
	if FrameFull(bw.count, len(bw.body), len(bw.rec), maxFrameItems) {
		if err := bw.flushFrame(); err != nil {
			return err
		}
	}
	bw.body = append(bw.body, bw.rec...)
	bw.count++
	return nil
}

func (bw *BinaryBatchWriter) flushFrame() error {
	if bw.count == 0 {
		return nil
	}
	if err := bw.writeMagic(); err != nil {
		return err
	}
	bw.hdr = AppendFrameHeader(bw.hdr[:0], bw.count, len(bw.body))
	if _, err := bw.w.Write(bw.hdr); err != nil {
		return err
	}
	if _, err := bw.w.Write(bw.body); err != nil {
		return err
	}
	bw.body = bw.body[:0]
	bw.count = 0
	return nil
}

func (bw *BinaryBatchWriter) writeMagic() error {
	if bw.started {
		return nil
	}
	if _, err := bw.w.Write(batchMagic[:]); err != nil {
		return err
	}
	bw.started = true
	return nil
}

// Flush writes any buffered data (and the header, so an empty stream
// is still a valid GSB1 stream). Call before closing the destination.
func (bw *BinaryBatchWriter) Flush() error {
	if err := bw.writeMagic(); err != nil {
		return err
	}
	return bw.w.Flush()
}

// FrameReader streams the frame layer of a GSB1 body: magic, length
// prefix and record count are validated — caps enforced before any
// allocation, so a forged frame length or record count is rejected by
// validation, not by attempting the allocation it claims to need — and
// the raw records region is handed back without touching the records
// themselves. The cluster router runs on this layer (ScanHashedRecord
// per record, forwarding the bytes verbatim); BinaryBatchDecoder
// builds the full decode on top of it.
type FrameReader struct {
	r       *bufio.Reader
	started bool
	reuse   bool
	err     error
	frame   []byte
	frames  int
}

// NewFrameReader returns a frame reader over a GSB1 body.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// SetReuse(true) lets the reader recycle the frame buffer across Next
// calls. Only safe when the caller fully consumes a frame (including
// any views into it) before the next Next.
func (fr *FrameReader) SetReuse(v bool) { fr.reuse = v }

// Next returns the records region and record count of the next
// non-empty frame, or (nil, 0) at EOF or on error (check Err). Valid
// empty frames are counted and skipped. The region's record boundaries
// are NOT validated here — the consumer walks it with ScanHashedRecord
// or DecodeHashedItem and must reject trailing bytes itself.
func (fr *FrameReader) Next() ([]byte, int) {
	if fr.err != nil {
		return nil, 0
	}
	if !fr.started {
		var got [4]byte
		if _, err := io.ReadFull(fr.r, got[:]); err != nil {
			if err != io.EOF { // empty body: clean end, zero frames
				fr.err = truncated(err)
			}
			return nil, 0
		}
		if got != batchMagic {
			fr.err = ErrBadBatchMagic
			return nil, 0
		}
		fr.started = true
	}
	for {
		frameLen, err := binary.ReadUvarint(fr.r)
		if err != nil {
			if err != io.EOF {
				fr.err = truncated(err)
			}
			return nil, 0
		}
		if frameLen < 1 || frameLen > maxFrameBytes {
			fr.err = fmt.Errorf("stream: unreasonable frame length %d", frameLen)
			return nil, 0
		}
		var body []byte
		if fr.reuse && cap(fr.frame) >= int(frameLen) {
			body = fr.frame[:frameLen]
		} else {
			body = make([]byte, frameLen)
			if fr.reuse {
				fr.frame = body
			}
		}
		if _, err := io.ReadFull(fr.r, body); err != nil {
			fr.err = truncated(err)
			return nil, 0
		}
		count, k := binary.Uvarint(body)
		if k <= 0 {
			fr.err = fmt.Errorf("stream: truncated frame: %w", io.ErrUnexpectedEOF)
			return nil, 0
		}
		if count > maxFrameItems {
			fr.err = fmt.Errorf("stream: unreasonable frame record count %d", count)
			return nil, 0
		}
		if count*minHashedRecordLen > uint64(len(body)-k) {
			fr.err = fmt.Errorf("stream: frame too short for %d records", count)
			return nil, 0
		}
		fr.frames++
		if count == 0 {
			continue // valid but empty frame
		}
		return body[k:], int(count)
	}
}

// Err reports the first frame-layer error; nil after a clean EOF.
func (fr *FrameReader) Err() error { return fr.err }

// Frames counts structurally valid frames read so far, empty ones
// included.
func (fr *FrameReader) Frames() int { return fr.frames }

// BinaryBatchDecoder streams a GSB1 body frame by frame. Memory use is
// one frame, never the whole body; a forged frame length or record
// count fails validation before it can allocate past the frame caps.
type BinaryBatchDecoder struct {
	fr       *FrameReader
	reuse    bool
	err      error
	batch    []HashedItem
	payloads [][]byte
	frames   int
	items    int64
}

// NewBinaryBatchDecoder returns a decoder reading from r.
func NewBinaryBatchDecoder(r io.Reader) *BinaryBatchDecoder {
	return &BinaryBatchDecoder{fr: NewFrameReader(r)}
}

// SetReuse(true) lets the decoder recycle the batch slice, the frame
// buffer, and with them the Payloads views across Next calls. Only
// safe when the caller fully consumes a batch before the next Next —
// the sync ingest path. The identifier strings are always fresh.
func (d *BinaryBatchDecoder) SetReuse(v bool) {
	d.reuse = v
	d.fr.SetReuse(v)
}

// Next returns the next frame's items, or nil at EOF or on error
// (check Err). A frame is atomic: its items are returned only when
// the whole frame validated.
func (d *BinaryBatchDecoder) Next() []HashedItem {
	if d.err != nil {
		return nil
	}
	records, count := d.fr.Next()
	if records == nil {
		return nil
	}
	var batch []HashedItem
	var payloads [][]byte
	if d.reuse {
		batch, payloads = d.batch[:0], d.payloads[:0]
	} else {
		batch = make([]HashedItem, 0, count)
		payloads = make([][]byte, 0, count)
	}
	pos := 0
	for i := 0; i < count; i++ {
		it, n, err := DecodeHashedItem(records[pos:])
		if err != nil {
			d.err = err
			return nil
		}
		batch = append(batch, it)
		payloads = append(payloads, records[pos+hashedPrefixLen:pos+n])
		pos += n
	}
	if pos != len(records) {
		d.err = fmt.Errorf("stream: frame holds %d bytes past its %d records", len(records)-pos, count)
		return nil
	}
	d.frames++
	d.items += int64(count)
	d.batch, d.payloads = batch, payloads
	return batch
}

// Payloads returns the raw GSS1 payload of every record in the batch
// last returned by Next — the exact bytes an operation log or spill
// log appends, with no re-encode. Views into the frame buffer: under
// SetReuse(true) they are valid only until the next Next call.
func (d *BinaryBatchDecoder) Payloads() [][]byte { return d.payloads }

// Err reports the first error encountered; nil after a clean EOF.
func (d *BinaryBatchDecoder) Err() error {
	if d.err != nil {
		return d.err
	}
	return d.fr.Err()
}

// Frames counts fully decoded frames.
func (d *BinaryBatchDecoder) Frames() int { return d.frames }

// Items counts items across fully decoded frames.
func (d *BinaryBatchDecoder) Items() int64 { return d.items }

// ReadAllBinary decodes every item of a GSB1 stream — the audit path
// (gss-inspect) and tests; servers stream frame by frame instead.
func ReadAllBinary(r io.Reader) ([]HashedItem, error) {
	d := NewBinaryBatchDecoder(r)
	var out []HashedItem
	for {
		b := d.Next()
		if b == nil {
			break
		}
		out = append(out, b...)
	}
	return out, d.Err()
}
