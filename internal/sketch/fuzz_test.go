package sketch

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/gss"
	"repro/internal/stream"
)

// Restore robustness: snapshots cross trust boundaries (HTTP /restore
// bodies, follower-fetched bytes, checkpoint files a crash may have
// torn), so Restore on every backend must treat arbitrary bytes as
// data, never as an invitation to panic or to allocate unbounded
// memory. Valid snapshots restore; everything else returns an error
// and leaves the sketch untouched.

// fuzzCfg is small so valid-snapshot seeds stay a few KB and the
// fuzzer explores structure, not padding.
var fuzzCfg = gss.Config{Width: 8, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}

var fuzzOpts = Options{Shards: 2, WindowSpan: 1 << 30, WindowGenerations: 4}

func fuzzSeedItems() []stream.Item {
	return []stream.Item{
		{Src: "a", Dst: "b", Weight: 5, Time: 1},
		{Src: "b", Dst: "c", Weight: 2, Time: 2},
		{Src: "c", Dst: "a", Weight: 9, Time: 3},
	}
}

// validSnapshots returns one snapshot per backend, plus one of a bare
// gss.GSS (the plain-sketch format), for seeding.
func validSnapshots(tb testing.TB) map[string][]byte {
	sketches := map[string]Sketch{"gss": gss.MustNew(fuzzCfg)}
	for _, backend := range Backends() {
		sk, err := New(backend, fuzzCfg, fuzzOpts)
		if err != nil {
			tb.Fatal(err)
		}
		sketches[backend] = sk
	}
	snaps := map[string][]byte{}
	for backend, sk := range sketches {
		sk.InsertBatch(fuzzSeedItems())
		var buf bytes.Buffer
		if err := sk.Snapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		snaps[backend] = buf.Bytes()
	}
	return snaps
}

func FuzzRestore(f *testing.F) {
	for _, snap := range validSnapshots(f) {
		f.Add(snap)
		f.Add(snap[:len(snap)/2]) // truncated mid-write
		flipped := append([]byte(nil), snap...)
		flipped[len(flipped)/3] ^= 0x40 // bit rot
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("GSSK"))
	f.Add([]byte("GSSH\x02\x00\x00\x00"))
	f.Add([]byte("GSSW\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, backend := range Backends() {
			sk, err := New(backend, fuzzCfg, fuzzOpts)
			if err != nil {
				t.Fatal(err)
			}
			sk.Insert(stream.Item{Src: "canary", Dst: "edge", Weight: 7, Time: 1})
			if err := sk.Restore(bytes.NewReader(data)); err != nil {
				// A failed restore must leave the sketch untouched.
				if w, ok := sk.EdgeWeight("canary", "edge"); !ok || w != 7 {
					t.Fatalf("%s: failed restore mutated state: %d,%v", backend, w, ok)
				}
				continue
			}
			// A restore that succeeded must leave a fully queryable
			// sketch, whatever the bytes were.
			sk.Stats()
			sk.Nodes()
			sk.HeavyEdges(1)
			sk.EdgeWeight("a", "b")
			sk.Successors("a")
			sk.Precursors("b")
			sk.Insert(stream.Item{Src: "post", Dst: "restore", Weight: 1, Time: 4})
		}
	})
}

// TestGenerateFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz when run with GSS_GEN_CORPUS=1; normally it just
// verifies the committed corpus parses and replays (go test runs every
// file in testdata/fuzz/FuzzRestore through FuzzRestore
// automatically). Regenerate after a snapshot format change:
//
//	GSS_GEN_CORPUS=1 go test ./internal/sketch -run TestGenerateFuzzCorpus
func TestGenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRestore")
	if os.Getenv("GSS_GEN_CORPUS") == "" {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("committed fuzz corpus missing (%v); regenerate with GSS_GEN_CORPUS=1", err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for backend, snap := range validSnapshots(t) {
		write("valid-"+backend, snap)
		write("truncated-"+backend, snap[:len(snap)/2])
		flipped := append([]byte(nil), snap...)
		flipped[len(flipped)/3] ^= 0x40
		write("bitflip-"+backend, flipped)
	}
	write("empty", nil)
	write("magic-only", []byte("GSSK"))
	// A header that promises a giant matrix backed by no body: the
	// allocation-bounding regression seed.
	write("forged-width", append([]byte("GSSK\x01\x00"),
		0xff, 0xff, 0xff, 0x7f, 16, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0))
}
