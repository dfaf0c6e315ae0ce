package cluster

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/sketch"
	"repro/internal/stream"
)

// The router's /insert path parses attacker-reachable bytes with
// stream.DecodeInsert (fuzzed on its own in internal/stream) and then
// re-frames every accepted item as a GSB1 record for its owner. The
// fuzz contract here is the re-framing: whatever the body, each
// record the router builds scans back to a hash that routes exactly
// like the item's source string, and decodes back to the very item
// that was accepted — so a member applies what the producer sent.

var insertSeeds = [][]byte{
	[]byte(`{"src":"a","dst":"b"}`),
	[]byte(`{"src":"a","dst":"b","weight":5,"time":9,"label":2}`),
	[]byte(`[{"src":"a","dst":"b"},{"src":"b","dst":"c","weight":-3}]`),
	[]byte(`[]`),
	[]byte(`{"src":"","dst":"b"}`),
	[]byte(`{"src":"a"`),
	[]byte(`"just a string"`),
	[]byte(`[{"src":"a","dst":"b"},42]`),
	[]byte("{\"src\":\"\\u00e9\",\"dst\":\"\\ud83d\\ude00\"}"),
	{0xff, 0xfe, '{', '}'},
}

func FuzzDecodeInsert(f *testing.F) {
	for _, seed := range insertSeeds {
		f.Add(seed)
	}
	ring, err := NewRing([]string{"http://a", "http://b", "http://c"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := stream.DecodeInsert(data)
		if err != nil {
			return
		}
		for _, it := range items {
			rec := stream.AppendHashedItem(nil, stream.HashItem(it))
			hsrc, n, err := stream.ScanHashedRecord(rec)
			if err != nil || n != len(rec) {
				t.Fatalf("router-built record for %+v does not scan: n=%d of %d, %v", it, n, len(rec), err)
			}
			if ring.OwnerHash(hsrc) != ring.Owner(it.Src) {
				t.Fatalf("record for %+v routes by its carried hash to another owner", it)
			}
			back, _, err := stream.DecodeHashedItem(rec)
			if err != nil || back.Item != it {
				t.Fatalf("record decodes to %+v (%v), want %+v", back.Item, err, it)
			}
		}
	})
}

// TestDecodeInsertDefaults pins the wire semantics end to end through
// the router: omitted weight means one observation, both the object
// and the array form land on the owning member, and an item without
// both endpoints is refused before anything is routed.
func TestDecodeInsertDefaults(t *testing.T) {
	_, urls := startMembers(t, 2, sketch.BackendConcurrent)
	_, ts := newTestRouter(t, Config{Members: urls})
	if resp, raw := postBody(t, ts.URL+"/insert", `{"src":"a","dst":"b"}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("object form: status %d (%s)", resp.StatusCode, raw)
	}
	if resp, raw := postBody(t, ts.URL+"/insert",
		`[{"src":"c","dst":"d","weight":7,"time":3,"label":2},{"src":"e","dst":"f"}]`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("array form: status %d (%s)", resp.StatusCode, raw)
	}
	for _, c := range []struct {
		src, dst string
		weight   int64
	}{{"a", "b", 1}, {"c", "d", 7}, {"e", "f", 1}} {
		var edge struct {
			Weight int64 `json:"weight"`
			Found  bool  `json:"found"`
		}
		getJSON(t, ts.URL+"/edge?src="+c.src+"&dst="+c.dst, &edge)
		if !edge.Found || edge.Weight != c.weight {
			t.Fatalf("edge %s->%s = %+v, want weight %d", c.src, c.dst, edge, c.weight)
		}
	}
	if resp, raw := postBody(t, ts.URL+"/insert", `[{"src":"a","dst":""}]`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing dst: status %d (%s), want 400", resp.StatusCode, raw)
	}
}

// The migrator's partition-transfer decode path reads the GSS1 body a
// losing member exported — bytes that crossed the network — through
// stream.NewReader and routes each item by its source node. The fuzz
// contract: any byte string yields items then a clean stop or an error,
// never a panic, and every decoded item routes.

// encodeTransfer renders items the way /partition/export does.
func encodeTransfer(items ...stream.Item) []byte {
	var buf bytes.Buffer
	w := stream.NewWriter(&buf)
	for _, it := range items {
		if err := w.WriteItem(it); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func partitionTransferSeeds() [][]byte {
	full := encodeTransfer(
		stream.Item{Src: "a", Dst: "b", Weight: 3, Time: 9, Label: 1},
		stream.Item{Src: "owned0-1", Dst: "hub", Weight: 1},
		stream.Item{Src: "", Dst: "", Weight: -7, Time: -1},
	)
	return [][]byte{
		nil,                // empty transfer body
		encodeTransfer(),   // header-only (an empty partition)
		full,               // well-formed multi-item body
		full[:len(full)-1], // truncated inside the last record
		full[:len(full)/2], // truncated mid-stream
		append(append([]byte(nil), full...), 0xff, 0x81), // trailing garbage
		[]byte("GSS1"),           // bare magic
		[]byte("GSS2junk"),       // wrong magic
		{0x00, 0x01, 0x02, 0x03}, // binary noise
		append([]byte("GSS1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // huge length prefix
		append([]byte("GSS1"), 0x05), // fuzzer-found: cut right after a length prefix
	}
}

func FuzzPartitionTransfer(f *testing.F) {
	for _, seed := range partitionTransferSeeds() {
		f.Add(seed)
	}
	ring, err := NewRing([]string{"http://a", "http://b", "http://c"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := stream.NewReader(bytes.NewReader(data))
		n := 0
		for {
			it, ok := sr.Next()
			if !ok {
				break
			}
			// Routing is total: whatever decodes must map to a member.
			if idx := ring.Owner(it.Src); idx < 0 || idx >= ring.Size() {
				t.Fatalf("decoded item routed outside the ring: %d", idx)
			}
			n++
		}
		// A clean empty decode of a GSS1 body longer than the bare header
		// would mean bytes were silently swallowed.
		if sr.Err() == nil && n == 0 && len(data) > 4 && bytes.HasPrefix(data, []byte("GSS1")) {
			t.Fatalf("reader silently swallowed %d bytes after the header", len(data)-4)
		}
	})
}

// TestGenerateClusterFuzzCorpus mirrors the repo corpus convention:
// committed seeds under testdata/fuzz replay on every go test run;
// GSS_GEN_CORPUS=1 regenerates them.
func TestGenerateClusterFuzzCorpus(t *testing.T) {
	corpora := map[string][][]byte{
		"FuzzDecodeInsert":      insertSeeds,
		"FuzzPartitionTransfer": partitionTransferSeeds(),
	}
	for name, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", name)
		if os.Getenv("GSS_GEN_CORPUS") == "" {
			entries, err := os.ReadDir(dir)
			if err != nil || len(entries) == 0 {
				t.Fatalf("committed fuzz corpus for %s missing (%v); regenerate with GSS_GEN_CORPUS=1", name, err)
			}
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			file := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
