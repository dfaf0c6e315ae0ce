package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// Decoder robustness: the NDJSON batch decoder sits directly behind
// POST /ingest and the text reader behind dataset loading, so both
// parse attacker- or operator-supplied bytes. Whatever the input, they
// must return items or an error — never panic — and what they do
// accept must round-trip through the matching encoder.

var ndjsonSeeds = [][]byte{
	[]byte(`{"src":"a","dst":"b"}`),
	[]byte("{\"src\":\"a\",\"dst\":\"b\",\"weight\":5,\"time\":9,\"label\":2}\n{\"src\":\"b\",\"dst\":\"c\"}\n"),
	[]byte("\n\n{\"src\":\"a\",\"dst\":\"b\"}\n\n"),
	[]byte(`{"src":"","dst":"b"}`),
	[]byte(`{"src":"a"`),
	[]byte("{\"src\":\"a\",\"dst\":\"b\",\"weight\":-3}\nnot json\n"),
	[]byte("{\"src\":\"\\u00e9\",\"dst\":\"\\ud83d\\ude00\"}\n"),
	{0xff, 0xfe, '{', '}'},
}

func decodeAll(tb testing.TB, data []byte, batchSize int) []Item {
	tb.Helper()
	dec := NewBatchDecoder(bytes.NewReader(data), batchSize)
	var items []Item
	for {
		batch := dec.Next()
		if batch == nil {
			break
		}
		if len(batch) > batchSize && batchSize >= 1 {
			tb.Fatalf("batch of %d exceeds size %d", len(batch), batchSize)
		}
		items = append(items, batch...)
	}
	if dec.Items() != int64(len(items)) {
		tb.Fatalf("Items() = %d, but %d decoded", dec.Items(), len(items))
	}
	for _, it := range items {
		if it.Src == "" || it.Dst == "" {
			tb.Fatalf("decoder passed an item without endpoints: %+v", it)
		}
	}
	return items
}

func FuzzNDJSONDecode(f *testing.F) {
	for _, seed := range ndjsonSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes must decode to the same items at any batch
		// size — batching is an amortization knob, not a semantic one.
		items := decodeAll(t, data, 1)
		for _, batchSize := range []int{3, 512} {
			if again := decodeAll(t, data, batchSize); !reflect.DeepEqual(items, again) {
				t.Fatalf("batch size %d decoded %d items, size 1 decoded %d",
					batchSize, len(again), len(items))
			}
		}
		if len(items) == 0 {
			return
		}
		// What was accepted re-encodes and re-decodes identically.
		var buf bytes.Buffer
		if err := EncodeNDJSON(&buf, items); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		dec := NewBatchDecoder(&buf, len(items))
		again := dec.Next()
		if err := dec.Err(); err != nil {
			t.Fatalf("re-decode of encoder output: %v", err)
		}
		if !reflect.DeepEqual(items, again) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, items)
		}
	})
}

func FuzzReadText(f *testing.F) {
	f.Add([]byte("a b\n"))
	f.Add([]byte("# comment\n% comment\na\tb\t5\t9\t2\n"))
	f.Add([]byte("a b notanumber\n"))
	f.Add([]byte("lonely\n"))
	f.Add([]byte("a b 9223372036854775807 -1 4294967295\n"))
	f.Add([]byte{0x00, 0x09, 0x20, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, it := range items {
			if it.Src == "" || it.Dst == "" {
				t.Fatalf("reader passed an item without endpoints: %+v", it)
			}
		}
		if len(items) == 0 {
			return
		}
		// Accepted items survive a write/read cycle: WriteText emits all
		// five fields and ReadText's whitespace split can't resurrect
		// ambiguity, because accepted identifiers never contain spaces.
		var buf bytes.Buffer
		if err := WriteText(&buf, items); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-decode of writer output: %v", err)
		}
		if !reflect.DeepEqual(items, again) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, items)
		}
	})
}

// TestGenerateStreamFuzzCorpus mirrors the sketch package's corpus
// convention: committed seeds under testdata/fuzz replay on every go
// test run; GSS_GEN_CORPUS=1 regenerates them.
func TestGenerateStreamFuzzCorpus(t *testing.T) {
	if os.Getenv("GSS_GEN_CORPUS") == "" {
		for _, sub := range []string{"FuzzNDJSONDecode", "FuzzBinaryBatchDecode", "FuzzScanItemLine", "FuzzDecodeInsert"} {
			dir := filepath.Join("testdata", "fuzz", sub)
			entries, err := os.ReadDir(dir)
			if err != nil || len(entries) == 0 {
				t.Fatalf("committed %s fuzz corpus missing (%v); regenerate with GSS_GEN_CORPUS=1", sub, err)
			}
		}
		return
	}
	for sub, seeds := range map[string][][]byte{
		"FuzzBinaryBatchDecode": binaryFuzzSeeds(),
		"FuzzNDJSONDecode":      ndjsonSeeds,
		"FuzzDecodeInsert":      insertSeeds,
		"FuzzReadText": {
			[]byte("a b\n"),
			[]byte("# c\na\tb\t5\t9\t2\n"),
			[]byte("a b 1 2 3 extra\n"),
		},
		"FuzzScanItemLine": append([][]byte{
			[]byte(`{"src":"a","dst":"b"}`),
			[]byte(`{"src":"a","dst":"b","weight":5,"time":9,"label":2}`),
			[]byte(`{"src":"a","dst":"b","SRC":"z"}`),
			[]byte(`{"src":"a","dst":"b","weight":01}`),
			[]byte(`{"src":"a","dst":"b","x":{"y":[true,null,1.5]}}`),
			[]byte(`{"src":"é","dst":"b"}`),
		}, scanSeeds[3:]...),
	} {
		d := filepath.Join("testdata", "fuzz", sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			name := filepath.Join(d, "seed-"+strconv.Itoa(i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
