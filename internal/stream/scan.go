package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// The NDJSON line decoder. Every NDJSON line any front door accepts —
// a server's /ingest, the cluster router's /ingest, each element of an
// /insert body — goes through DecodeItemLine, so the accepted grammar,
// the defaults and the required fields cannot drift between them.
// DecodeItemLine is a single left-to-right scan that walks and
// validates every field and builds the whole Item from the bytes it
// proved; whenever the scan cannot PROVE that encoding/json would
// decode the line to exactly that item, it falls back to the
// json.Unmarshal reference. The fast path is therefore sound by
// construction — it only ever accepts a subset of what the reference
// accepts, with the same result — and the differential fuzz target
// (FuzzScanItemLine) pins the two together.

// ErrMissingEndpoints mirrors the wire contract: an item without both
// endpoints is rejected.
var ErrMissingEndpoints = errors.New("src and dst are required")

// DecodeItemLine decodes one NDJSON item line: "src" and "dst" are
// required, an omitted "weight" means one observation, "time" and
// "label" default to 0. The line must hold exactly one JSON object
// (surrounding whitespace aside).
func DecodeItemLine(line []byte) (Item, error) {
	if it, ok := scanItemFast(line); ok {
		return it, nil
	}
	it := Item{Weight: 1}
	if err := json.Unmarshal(line, (*wireItem)(&it)); err != nil {
		return Item{}, err
	}
	if it.Src == "" || it.Dst == "" {
		return Item{}, ErrMissingEndpoints
	}
	return it, nil
}

// ScanItemLine returns the endpoints of one NDJSON item line; it is
// DecodeItemLine with the rest of the item dropped.
func ScanItemLine(line []byte) (src, dst string, err error) {
	it, err := DecodeItemLine(line)
	return it.Src, it.Dst, err
}

// scanItemFast is the no-allocation-but-the-strings pass. It reports
// ok=false — punting to the reference decoder — on anything it cannot
// prove: escape sequences or non-ASCII bytes in strings (encoding/json
// unescapes and replaces invalid UTF-8), numbers that might overflow
// or are not plain integers where the wire type demands one (null
// included: it leaves the field as it was), keys that match a field
// only case-insensitively, deep nesting, or any structural
// irregularity. Duplicate keys are fine: every occurrence is proved
// and the last one wins, as in the reference.
func scanItemFast(line []byte) (it Item, ok bool) {
	it.Weight = 1
	i := skipWS(line, 0)
	if i >= len(line) || line[i] != '{' {
		return Item{}, false
	}
	i++
	first := true
	for {
		i = skipWS(line, i)
		if i >= len(line) {
			return Item{}, false
		}
		if line[i] == '}' {
			i++
			break
		}
		if !first {
			if line[i] != ',' {
				return Item{}, false
			}
			i = skipWS(line, i+1)
		}
		first = false
		key, j, kOK := scanPlainString(line, i)
		if !kOK {
			return Item{}, false
		}
		i = skipWS(line, j)
		if i >= len(line) || line[i] != ':' {
			return Item{}, false
		}
		i = skipWS(line, i+1)
		var vOK bool
		switch {
		case bytes.Equal(key, srcKey), bytes.Equal(key, dstKey):
			var val []byte
			val, j, vOK = scanPlainString(line, i)
			if !vOK || len(val) == 0 {
				return Item{}, false
			}
			if bytes.Equal(key, srcKey) {
				it.Src = string(val)
			} else {
				it.Dst = string(val)
			}
		case bytes.Equal(key, weightKey):
			// int64 wire fields: up to 18 digits cannot overflow.
			it.Weight, j, vOK = scanPlainInt(line, i, 18, true)
		case bytes.Equal(key, timeKey):
			it.Time, j, vOK = scanPlainInt(line, i, 18, true)
		case bytes.Equal(key, labelKey):
			// uint32 wire field: up to 9 digits, no sign.
			var label int64
			label, j, vOK = scanPlainInt(line, i, 9, false)
			it.Label = uint32(label)
		default:
			// encoding/json matches struct fields case-insensitively
			// (last occurrence wins), so a key like "SRC" would bind to
			// the src field in the reference decode — only the exact
			// spellings above are provable here.
			for _, known := range [...][]byte{srcKey, dstKey, weightKey, timeKey, labelKey} {
				if bytes.EqualFold(key, known) {
					return Item{}, false
				}
			}
			j, vOK = scanAnyValue(line, i, 0)
		}
		if !vOK {
			return Item{}, false
		}
		i = j
	}
	if skipWS(line, i) != len(line) {
		return Item{}, false
	}
	if it.Src == "" || it.Dst == "" {
		return Item{}, false
	}
	return it, true
}

var (
	srcKey    = []byte("src")
	dstKey    = []byte("dst")
	weightKey = []byte("weight")
	timeKey   = []byte("time")
	labelKey  = []byte("label")
)

func skipWS(b []byte, i int) int {
	for i < len(b) && isJSONSpace(b[i]) {
		i++
	}
	return i
}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// scanPlainString accepts a JSON string containing only printable
// ASCII with no escapes — the identifier alphabet the fast path can
// pass through byte-for-byte. Anything else (escapes, multi-byte
// UTF-8, control bytes) punts to the reference decoder.
func scanPlainString(b []byte, i int) (val []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		c := b[j]
		if c == '"' {
			return b[start:j], j + 1, true
		}
		if c == '\\' || c < 0x20 || c > 0x7e {
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanPlainInt accepts a plain JSON integer of at most maxDigits
// digits (JSON forbids leading zeros and a leading '+'); neg allows a
// minus sign. Fractions, exponents and longer tokens punt. maxDigits
// is at most 18, so the value always fits an int64.
func scanPlainInt(b []byte, i, maxDigits int, neg bool) (v int64, next int, ok bool) {
	minus := i < len(b) && b[i] == '-'
	if minus {
		if !neg {
			return 0, 0, false
		}
		i++
	}
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	n := i - start
	if n == 0 || n > maxDigits {
		return 0, 0, false
	}
	if b[start] == '0' && n > 1 {
		return 0, 0, false
	}
	// A following '.', 'e' or 'E' would make this a non-integer.
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, 0, false
	}
	if minus {
		v = -v
	}
	return v, i, true
}

// maxScanDepth bounds nested unknown values; deeper punts.
const maxScanDepth = 16

// scanAnyValue validates one JSON value of any kind under the fast
// path's strict rules (plain strings, integer-or-simple numbers,
// bounded nesting).
func scanAnyValue(b []byte, i, depth int) (next int, ok bool) {
	if depth > maxScanDepth || i >= len(b) {
		return 0, false
	}
	switch b[i] {
	case '"':
		_, j, sOK := scanPlainString(b, i)
		return j, sOK
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	case '{':
		i = skipWS(b, i+1)
		first := true
		for {
			if i >= len(b) {
				return 0, false
			}
			if b[i] == '}' {
				return i + 1, true
			}
			if !first {
				if b[i] != ',' {
					return 0, false
				}
				i = skipWS(b, i+1)
			}
			first = false
			_, j, kOK := scanPlainString(b, i)
			if !kOK {
				return 0, false
			}
			i = skipWS(b, j)
			if i >= len(b) || b[i] != ':' {
				return 0, false
			}
			i = skipWS(b, i+1)
			j, vOK := scanAnyValue(b, i, depth+1)
			if !vOK {
				return 0, false
			}
			i = skipWS(b, j)
		}
	case '[':
		i = skipWS(b, i+1)
		first := true
		for {
			if i >= len(b) {
				return 0, false
			}
			if b[i] == ']' {
				return i + 1, true
			}
			if !first {
				if b[i] != ',' {
					return 0, false
				}
				i = skipWS(b, i+1)
			}
			first = false
			j, vOK := scanAnyValue(b, i, depth+1)
			if !vOK {
				return 0, false
			}
			i = skipWS(b, j)
		}
	default:
		// A number of any JSON shape; restrict to the integer form the
		// scanner can prove (floats on unknown keys punt — rare).
		_, j, ok := scanPlainInt(b, i, 18, true)
		return j, ok
	}
}

func scanLiteral(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return 0, false
	}
	return i + len(lit), true
}

// NewLineScanner returns a bufio.Scanner over r configured with the
// NDJSON line limits the batch decoder uses, for callers that walk
// lines themselves (the cluster router re-framing NDJSON as GSB1).
func NewLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxNDJSONLine)
	return sc
}
