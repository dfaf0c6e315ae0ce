package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// NDJSON wire format: one JSON object per line, the same field names
// the HTTP API uses. "src" and "dst" are required; "weight" defaults
// to 1 when omitted (an unweighted edge observation); "time" and
// "label" default to 0. Blank lines are skipped, so files can carry
// visual spacing and a trailing newline. NDJSON is the bulk-ingest
// wire form: a producer streams lines, the server decodes them into
// batches (each line through DecodeItemLine), hashes each batch once
// and inserts it under amortized locking.

// wireItem is Item under the wire field names. Its underlying struct is
// identical to Item's (field names, types and order — only the tags
// differ), so a *Item converts directly to *wireItem and the reference
// decode unmarshals into the item in place, with no intermediate copy.
type wireItem struct {
	Src    string `json:"src"`
	Dst    string `json:"dst"`
	Time   int64  `json:"time,omitempty"`
	Weight int64  `json:"weight"`
	Label  uint32 `json:"label,omitempty"`
}

// jsonItem mirrors Item with the wire field names (encode side).
type jsonItem = wireItem

// maxNDJSONLine bounds one encoded item; longer lines are malformed.
const maxNDJSONLine = 1 << 20

// BatchDecoder streams an NDJSON item stream in batches, so an
// arbitrarily long request body is ingested with bounded memory.
type BatchDecoder struct {
	sc        *bufio.Scanner
	batchSize int
	line      int   // 1-based number of the last line read
	items     int64 // items decoded so far
	err       error

	reuse bool
	buf   []Item // batch backing array, recycled when reuse is set
}

// NewBatchDecoder returns a decoder reading NDJSON from r that yields
// batches of up to batchSize items (values < 1 mean 1).
func NewBatchDecoder(r io.Reader, batchSize int) *BatchDecoder {
	if batchSize < 1 {
		batchSize = 1
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxNDJSONLine)
	return &BatchDecoder{sc: sc, batchSize: batchSize}
}

// SetReuse controls batch-slice ownership. When reuse is on, Next
// recycles one backing array across calls, so the returned batch is
// only valid until the next Next call — the right mode for callers that
// fully consume each batch before asking for the next (the server's
// sync ingest path), where it removes the per-batch slice allocation.
// Off (the default), every call returns a fresh slice the caller may
// retain or hand off (e.g. to an async worker pool).
func (d *BatchDecoder) SetReuse(reuse bool) { d.reuse = reuse }

// Next returns the next batch of decoded items. It returns a nil slice
// once the stream is exhausted; check Err afterwards. See SetReuse for
// batch ownership.
func (d *BatchDecoder) Next() []Item {
	if d.err != nil {
		return nil
	}
	var batch []Item
	if d.reuse {
		if d.buf == nil {
			d.buf = make([]Item, 0, d.batchSize)
		}
		batch = d.buf[:0]
	}
	for len(batch) < d.batchSize {
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				d.err = fmt.Errorf("stream: ndjson line %d: %w", d.line+1, err)
			}
			break
		}
		d.line++
		line := bytes.TrimSpace(d.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		it, err := DecodeItemLine(line)
		if err != nil {
			d.err = fmt.Errorf("stream: ndjson line %d: %w", d.line, err)
			break
		}
		if batch == nil {
			batch = make([]Item, 0, d.batchSize)
		}
		batch = append(batch, it)
	}
	d.items += int64(len(batch))
	if d.reuse {
		d.buf = batch
	}
	if len(batch) == 0 {
		return nil
	}
	return batch
}

// Err reports the first decode error; nil after a clean end of stream.
// Items decoded before the bad line are still returned by Next, so a
// caller can report how much of a partially bad upload was ingested.
func (d *BatchDecoder) Err() error { return d.err }

// Line reports the number of the last NDJSON line read (1-based).
func (d *BatchDecoder) Line() int { return d.line }

// Items reports how many items have been decoded so far.
func (d *BatchDecoder) Items() int64 { return d.items }

// EncodeNDJSON writes items to w in the NDJSON wire format.
func EncodeNDJSON(w io.Writer, items []Item) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for _, it := range items {
		if err := enc.Encode(jsonItem{Src: it.Src, Dst: it.Dst,
			Weight: it.Weight, Time: it.Time, Label: it.Label}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MaxInsertBytes bounds one /insert body on every front door (server
// and cluster router); a longer body answers 413. /insert is the
// small-batch route — bulk uploads stream through /ingest, whose cost
// is bounded per line and per batch instead.
const MaxInsertBytes = 8 << 20

// DecodeInsert decodes an /insert body: one item object, or an array
// of them. Each item decodes exactly like an NDJSON line
// (DecodeItemLine — same grammar, defaults and required endpoints),
// and anything but whitespace after the value is an error. Shared by
// the server and the cluster router, so both answer every body alike.
func DecodeInsert(body []byte) ([]Item, error) {
	body = body[skipWS(body, 0):]
	for len(body) > 0 && isJSONSpace(body[len(body)-1]) {
		body = body[:len(body)-1]
	}
	if len(body) == 0 {
		return nil, errors.New("empty body: want an item object or an array of them")
	}
	switch body[0] {
	case '{':
		it, err := DecodeItemLine(body)
		if err != nil {
			return nil, fmt.Errorf("bad item: %w", err)
		}
		return []Item{it}, nil
	case '[':
	default:
		return nil, errors.New("want an item object or an array of them")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err := dec.Token(); err != nil { // the '['
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	var items []Item
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("bad item %d: %w", len(items)+1, err)
		}
		it, err := DecodeItemLine(raw)
		if err != nil {
			return nil, fmt.Errorf("bad item %d: %w", len(items)+1, err)
		}
		items = append(items, it)
	}
	if _, err := dec.Token(); err != nil { // the ']'
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	if dec.InputOffset() != int64(len(body)) {
		return nil, errors.New("bad JSON: data after the array")
	}
	return items, nil
}

// DecodeNDJSON reads the whole NDJSON stream from r in batches of
// batchSize, invoking fn for each batch. It returns the total item
// count and the first decode or callback error.
func DecodeNDJSON(r io.Reader, batchSize int, fn func([]Item) error) (int64, error) {
	d := NewBatchDecoder(r, batchSize)
	for {
		batch := d.Next()
		if batch == nil {
			return d.Items(), d.Err()
		}
		if err := fn(batch); err != nil {
			return d.Items(), err
		}
	}
}
