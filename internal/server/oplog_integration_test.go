package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gss"
	"repro/internal/replica"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Operation-log integration: the primary appends every applied batch
// before acking, recovery is checkpoint + replay from the checkpoint's
// sequence, /log serves the records, and a tailing follower converges
// on deltas instead of whole snapshots.

func logOpts(t *testing.T, base string) Options {
	return Options{
		CheckpointDir:      filepath.Join(base, "ckpt"),
		CheckpointInterval: time.Hour,
		LogDir:             filepath.Join(base, "log"),
		LogSyncEvery:       -1, // sync every append: crashes lose nothing
		Logf:               quiet(t),
	}
}

// TestLogRecoveryReplaysTail is the finer-grained durability scenario
// the log buys: items ingested after the last checkpoint survive a
// kill, because recovery replays the log from the checkpoint's
// sequence.
func TestLogRecoveryReplaysTail(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	opt := logOpts(t, base)

	s1, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	items := replicaItems(2000)
	ingestAll(t, ts1.URL, items[:1500])
	if _, err := s1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ts1.URL, items[1500:]) // the tail only the log holds
	var wantStats gss.Stats
	getJSON(t, ts1.URL+"/stats", &wantStats)
	wantHeavy := heavyBody(t, ts1.URL)

	// Crash: drop the listener, never Close (no final checkpoint).
	ts1.Close()

	s2, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var gotStats gss.Stats
	getJSON(t, ts2.URL+"/stats", &gotStats)
	if gotStats != wantStats {
		t.Fatalf("restarted stats = %+v, want pre-kill %+v", gotStats, wantStats)
	}
	if gotStats.Items != 2000 {
		t.Fatalf("recovered items = %d, want all 2000 (1500 checkpointed + 500 replayed)", gotStats.Items)
	}
	if got := heavyBody(t, ts2.URL); got != wantHeavy {
		t.Fatalf("restarted /heavy diverges:\n got %s\nwant %s", got, wantHeavy)
	}
	var rs ReplicaStats
	getJSON(t, ts2.URL+"/replica/stats", &rs)
	if rs.ReplayedItems != 500 {
		t.Fatalf("replayed_items = %d, want 500", rs.ReplayedItems)
	}
	if rs.Log == nil || rs.Log.NextSeq != 2000 {
		t.Fatalf("log stats after recovery: %+v", rs.Log)
	}
}

// TestLogOnlyRecovery: with no checkpoint directory the log alone
// rebuilds the whole state.
func TestLogOnlyRecovery(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	opt := Options{LogDir: filepath.Join(base, "log"), LogSyncEvery: -1, Logf: quiet(t)}

	s1, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	ingestAll(t, ts1.URL, replicaItems(800))
	var want gss.Stats
	getJSON(t, ts1.URL+"/stats", &want)
	ts1.Close() // crash

	s2, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Sketch().Stats(); got != want {
		t.Fatalf("log-only recovery: stats %+v, want %+v", got, want)
	}
}

// TestLogRecoveryWindowedBackend pins the replay-determinism argument
// for the stateful-in-time backend: window rotation follows item
// times, so checkpoint + replay lands in the same window state.
func TestLogRecoveryWindowedBackend(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	opt := logOpts(t, base)
	opt.Backend = sketch.BackendWindowed
	opt.WindowSpan = 500
	opt.WindowGenerations = 4

	s1, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	items := replicaItems(2000) // times 1..2000 sweep several generations
	ingestAll(t, ts1.URL, items[:700])
	if _, err := s1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ts1.URL, items[700:])
	var want gss.Stats
	getJSON(t, ts1.URL+"/stats", &want)
	wantHeavy := heavyBody(t, ts1.URL)
	ts1.Close() // crash

	s2, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var got gss.Stats
	getJSON(t, ts2.URL+"/stats", &got)
	if got != want {
		t.Fatalf("windowed recovery stats = %+v, want %+v", got, want)
	}
	if h := heavyBody(t, ts2.URL); h != wantHeavy {
		t.Fatalf("windowed recovery /heavy diverges:\n got %s\nwant %s", h, wantHeavy)
	}
}

// TestRecoveryOlderCheckpointReplaysLongerTail: when the newest
// checkpoint is corrupt, recovery falls back to an older one — and the
// log must still hold that older checkpoint's tail, because retention
// is keyed to the oldest retained checkpoint, not the newest.
func TestRecoveryOlderCheckpointReplaysLongerTail(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	opt := logOpts(t, base)

	s1, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	items := replicaItems(900)
	ingestAll(t, ts1.URL, items[:300])
	if _, err := s1.CheckpointNow(); err != nil { // seq 300
		t.Fatal(err)
	}
	ingestAll(t, ts1.URL, items[300:600])
	if _, err := s1.CheckpointNow(); err != nil { // seq 600
		t.Fatal(err)
	}
	ingestAll(t, ts1.URL, items[600:])
	var want gss.Stats
	getJSON(t, ts1.URL+"/stats", &want)
	ts1.Close() // crash

	// Corrupt the newest checkpoint; its sidecar stays, which is
	// exactly the hard case: recovery must use the older pair.
	cks, err := replica.List(opt.CheckpointDir)
	if err != nil || len(cks) < 2 {
		t.Fatalf("checkpoints: %v %v", cks, err)
	}
	newest := cks[len(cks)-1].Path
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Sketch().Stats(); got != want {
		t.Fatalf("fallback recovery stats = %+v, want %+v", got, want)
	}
	// 300 from the older checkpoint + 600 replayed.
	var rs ReplicaStats
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	getJSON(t, ts2.URL+"/replica/stats", &rs)
	if rs.ReplayedItems != 600 {
		t.Fatalf("replayed_items = %d, want 600 (tail of the older checkpoint)", rs.ReplayedItems)
	}
}

// TestLogEndpoint drives GET /log directly: paging, headers, and the
// error statuses followers key their fallback on.
func TestLogEndpoint(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	opt := Options{LogDir: filepath.Join(base, "log"), LogSyncEvery: -1, Logf: quiet(t)}
	s, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items := replicaItems(100)
	ingestAll(t, ts.URL, items)

	fetch := func(q string) (*http.Response, []stream.Item) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/log" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET /log%s: %d %s", q, resp.StatusCode, b)
		}
		got, err := stream.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("decoding /log%s body: %v", q, err)
		}
		return resp, got
	}

	resp, got := fetch("?from=0&max=40")
	if len(got) != 40 {
		t.Fatalf("page 1: %d items, want 40", len(got))
	}
	if h := resp.Header.Get("X-Log-Next"); h != "40" {
		t.Fatalf("X-Log-Next = %q, want 40", h)
	}
	if h := resp.Header.Get("X-Log-End"); h != "100" {
		t.Fatalf("X-Log-End = %q, want 100", h)
	}
	// The served records are the ingested items, timestamps included.
	for i, it := range got {
		if it != items[i] {
			t.Fatalf("record %d = %+v, want %+v", i, it, items[i])
		}
	}
	_, got = fetch("?from=40")
	if len(got) != 60 {
		t.Fatalf("page 2: %d items, want the remaining 60", len(got))
	}

	for _, tc := range []struct {
		q    string
		code int
	}{
		{"?from=101", http.StatusRequestedRangeNotSatisfiable},
		{"?from=-1", http.StatusBadRequest},
		{"?from=0&max=0", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + "/log" + tc.q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("GET /log%s: status %d, want %d", tc.q, resp.StatusCode, tc.code)
		}
	}

	// A server without a log answers 404 — the follower's cue to stay
	// on snapshot polling.
	_, plain := newTestServer(t)
	resp2, err := http.Get(plain.URL + "/log?from=0")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("logless /log status = %d, want 404", resp2.StatusCode)
	}

	// /snapshot on a logging primary carries the resume offset.
	resp3, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if h := resp3.Header.Get("X-Log-Seq"); h != "100" {
		t.Fatalf("X-Log-Seq = %q, want 100", h)
	}
}

// TestLogRetirementAnswers410: once a checkpoint lets the log retire
// old segments, reading below the horizon is 410 Gone with the oldest
// retained offset — the follower re-syncs from /snapshot.
func TestLogRetirementAnswers410(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	opt := logOpts(t, base)
	opt.CheckpointKeep = 1
	s, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two checkpoint cycles: the first seals everything so far; the
	// second (with Keep=1 pruning the first) lets retention move the
	// horizon past it.
	ingestAll(t, ts.URL, replicaItems(400))
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ts.URL, replicaItems(400))
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	var rs ReplicaStats
	getJSON(t, ts.URL+"/replica/stats", &rs)
	if rs.Log == nil || rs.Log.OldestSeq == 0 {
		t.Fatalf("retention never moved: log stats %+v", rs.Log)
	}
	resp, err := http.Get(ts.URL + "/log?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("retired offset status = %d, want 410", resp.StatusCode)
	}
	if resp.Header.Get("X-Log-Oldest") == "" {
		t.Fatal("410 response missing X-Log-Oldest")
	}
}

// TestFollowerTailConvergence: a log-tailing follower converges on the
// primary's state and reports tail-mode stats; the wire cost is the
// delta, not the snapshot.
func TestFollowerTailConvergence(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	popt := Options{LogDir: filepath.Join(base, "log"), LogSyncEvery: -1, Logf: quiet(t)}
	p, err := NewWithOptions(cfg, popt)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tsP := httptest.NewServer(p.Handler())
	defer tsP.Close()

	items := replicaItems(1000)
	ingestAll(t, tsP.URL, items[:600])

	f, err := NewWithOptions(cfg, Options{
		FollowURL:      tsP.URL,
		FollowInterval: 20 * time.Millisecond, Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tsF := httptest.NewServer(f.Handler())
	defer tsF.Close()

	waitConverged := func(wantItems int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			var st gss.Stats
			getJSON(t, tsF.URL+"/stats", &st)
			if st.Items == wantItems {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at %d items, want %d", st.Items, wantItems)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitConverged(600) // bootstrap snapshot

	ingestAll(t, tsP.URL, items[600:])
	waitConverged(1000) // tailed delta

	var want, got gss.Stats
	getJSON(t, tsP.URL+"/stats", &want)
	getJSON(t, tsF.URL+"/stats", &got)
	if got != want {
		t.Fatalf("follower stats %+v, want primary %+v", got, want)
	}

	var rs ReplicaStats
	getJSON(t, tsF.URL+"/replica/stats", &rs)
	fs := rs.Follower
	if fs == nil || fs.Mode != "tail" {
		t.Fatalf("follower stats: %+v", fs)
	}
	if fs.TailedItems != 400 {
		t.Fatalf("tailed_items = %d, want the 400 post-bootstrap items", fs.TailedItems)
	}
	if fs.LogSeq != 1000 {
		t.Fatalf("log_seq = %d, want 1000", fs.LogSeq)
	}
	// One bootstrap snapshot; everything after came over /log.
	if fs.SnapshotBytes == 0 || fs.TailedBytes == 0 {
		t.Fatalf("wire counters empty: %+v", fs)
	}
	if fs.LagItems != 0 {
		t.Fatalf("lag_items = %d after convergence, want 0", fs.LagItems)
	}
}

// TestFollowerSkipsUnchangedSnapshot: a snapshot-polling follower must
// not rebuild and hot-swap a sketch for a byte-identical snapshot.
func TestFollowerSkipsUnchangedSnapshot(t *testing.T) {
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	p, err := NewWithOptions(cfg, Options{Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tsP := httptest.NewServer(p.Handler())
	defer tsP.Close()
	ingestAll(t, tsP.URL, replicaItems(200))

	f, err := NewWithOptions(cfg, Options{
		FollowURL: tsP.URL, FollowInterval: 15 * time.Millisecond, Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tsF := httptest.NewServer(f.Handler())
	defer tsF.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var rs ReplicaStats
		getJSON(t, tsF.URL+"/replica/stats", &rs)
		if fs := rs.Follower; fs != nil && fs.SkippedUnchanged >= 2 {
			if fs.Applied != 1 {
				t.Fatalf("applied = %d with an unchanged primary, want exactly 1", fs.Applied)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower kept re-applying an unchanged snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFollowerWithLogDirRefused: the two roles are exclusive.
func TestFollowerWithLogDirRefused(t *testing.T) {
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	_, err := NewWithOptions(cfg, Options{
		LogDir: t.TempDir(), FollowURL: "http://localhost:1", Logf: quiet(t)})
	if err == nil {
		t.Fatal("LogDir+FollowURL must be rejected")
	}
}

// TestRestoreResetsLog: /restore replaces state wholesale, so the
// pre-restore log must not replay over it after a crash.
func TestRestoreResetsLog(t *testing.T) {
	base := t.TempDir()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	opt := logOpts(t, base)

	// A donor snapshot with known contents.
	donor, err := NewWithOptions(cfg, Options{Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	tsD := httptest.NewServer(donor.Handler())
	ingestAll(t, tsD.URL, replicaItems(100))
	snapResp, err := http.Get(tsD.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	tsD.Close()
	donor.Close()

	s1, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	ingestAll(t, ts1.URL, replicaItems(700)) // pre-restore garbage
	req, err := http.NewRequest(http.MethodPost, ts1.URL+"/restore", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", resp.StatusCode)
	}
	var want gss.Stats
	getJSON(t, ts1.URL+"/stats", &want)
	if want.Items != 100 {
		t.Fatalf("restored items = %d, want the donor's 100", want.Items)
	}
	ts1.Close() // crash right after the restore

	s2, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Sketch().Stats(); got != want {
		t.Fatalf("post-restore recovery stats = %+v, want %+v", got, want)
	}
}
