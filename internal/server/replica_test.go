package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gss"
	"repro/internal/replica"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// quiet silences a test server's operational log (expected checkpoint
// warnings would otherwise spam the test output); routing it through
// t.Logf keeps it visible on failure.
func quiet(t *testing.T) func(string, ...interface{}) {
	return func(format string, args ...interface{}) { t.Logf(format, args...) }
}

func replicaItems(n int) []stream.Item {
	items := make([]stream.Item, n)
	for i := range items {
		items[i] = stream.Item{
			Src:    fmt.Sprintf("s%d", i%50),
			Dst:    fmt.Sprintf("d%d", i%31),
			Weight: int64(i%7) + 1,
			Time:   1 + int64(i),
		}
	}
	return items
}

func ingestAll(t *testing.T, url string, items []stream.Item) {
	t.Helper()
	resp := post(t, url+"/ingest", ndjson(t, items).String())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, b)
	}
}

func heavyBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/heavy?min=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heavy status %d: %s", resp.StatusCode, b)
	}
	return string(b)
}

// TestKillAndRestartRecovery is the durability acceptance scenario: a
// primary is killed without any shutdown courtesy and restarted over
// the same checkpoint directory; it must answer /stats and /heavy
// exactly as it did at its last durable point.
func TestKillAndRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := gss.Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	opt := Options{Backend: sketch.BackendSharded, Shards: 4,
		CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: quiet(t)}

	s1, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	items := replicaItems(2000)
	ingestAll(t, ts1.URL, items[:1500])

	// Force a durable point over the ops endpoint, then write more that
	// will be lost with the crash.
	resp := post(t, ts1.URL+"/checkpoint", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	var wantStats gss.Stats
	getJSON(t, ts1.URL+"/stats", &wantStats)
	wantHeavy := heavyBody(t, ts1.URL)
	ingestAll(t, ts1.URL, items[1500:]) // post-checkpoint tail, lost by the crash

	// Crash: drop the listener, never call Close (no final checkpoint).
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
	if gotStats.Items != 1500 {
		t.Fatalf("recovered items = %d, want the 1500 checkpointed ones", gotStats.Items)
	}
	if got := heavyBody(t, ts2.URL); got != wantHeavy {
		t.Fatalf("restarted /heavy diverges:\n got %s\nwant %s", got, wantHeavy)
	}
}

// TestCloseTakesFinalCheckpoint: a clean shutdown loses nothing even
// if no periodic tick ever fired.
func TestCloseTakesFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	opt := Options{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: quiet(t)}

	s1, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	ingestAll(t, ts1.URL, replicaItems(500))
	ts1.Close()
	s1.Close()

	s2, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Sketch().Stats(); st.Items != 500 {
		t.Fatalf("clean shutdown lost items: recovered %d of 500", st.Items)
	}
}

// TestRecoverySkipsCorruptCheckpoint: a torn newest checkpoint must not
// take the server down or win recovery — the newest valid one does.
func TestRecoverySkipsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	opt := Options{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: quiet(t)}

	s1, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	ingestAll(t, ts1.URL, replicaItems(300))
	if _, err := s1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Tear the "newest" checkpoint two ways a crash could: one
	// truncated mid-write, one bit-flipped.
	cks, err := replica.List(dir)
	if err != nil || len(cks) == 0 {
		t.Fatalf("checkpoints: %v %v", cks, err)
	}
	valid, err := os.ReadFile(cks[len(cks)-1].Path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(nil), valid[:len(valid)/3]...)
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-0000000000000098.gss"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[2] ^= 0xff // break the magic
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-0000000000000099.gss"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings int
	opt.Logf = func(format string, args ...interface{}) {
		if strings.Contains(format, "skipping") {
			warnings++
		}
		t.Logf(format, args...)
	}
	s2, err := NewWithOptions(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Sketch().Stats(); st.Items != 300 {
		t.Fatalf("recovered %d items, want 300 from the valid checkpoint", st.Items)
	}
	if warnings != 2 {
		t.Fatalf("corrupt-checkpoint warnings = %d, want 2", warnings)
	}
}

// TestFollowerServesReadsRejectsWrites is the fail-over acceptance
// scenario: a follower converges on the primary's state within one
// poll interval, serves every read endpoint, and answers 403 on every
// write endpoint.
func TestFollowerServesReadsRejectsWrites(t *testing.T) {
	cfg := gss.Config{Width: 64, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	primary, tsP := newIngestServer(t, Options{Backend: sketch.BackendSharded, Shards: 4})
	_ = primary
	items := replicaItems(1000)
	ingestAll(t, tsP.URL, items[:600])

	follower, err := NewWithOptions(cfg, Options{Backend: sketch.BackendSharded, Shards: 4,
		FollowURL: tsP.URL, FollowInterval: 25 * time.Millisecond, Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(follower.Close)
	tsF := httptest.NewServer(follower.Handler())
	t.Cleanup(tsF.Close)

	statsOf := func(url string) gss.Stats {
		var st gss.Stats
		getJSON(t, url+"/stats", &st)
		return st
	}
	waitConverged := func(want gss.Stats) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for statsOf(tsF.URL) != want {
			if time.Now().After(deadline) {
				t.Fatalf("follower never converged: %+v vs %+v", statsOf(tsF.URL), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitConverged(statsOf(tsP.URL))
	if got, want := heavyBody(t, tsF.URL), heavyBody(t, tsP.URL); got != want {
		t.Fatalf("follower /heavy diverges:\n got %s\nwant %s", got, want)
	}

	// New primary writes become visible on the follower.
	ingestAll(t, tsP.URL, items[600:])
	waitConverged(statsOf(tsP.URL))

	// Every write endpoint answers 403 with the primary's address.
	writes := []struct{ path, body string }{
		{"/insert", `{"src":"a","dst":"b"}`},
		{"/ingest", `{"src":"a","dst":"b"}`},
		{"/ingest?async=1", `{"src":"a","dst":"b"}`},
		{"/restore", "whatever"},
	}
	for _, c := range writes {
		resp := post(t, tsF.URL+c.path, c.body)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("follower POST %s = %d, want 403", c.path, resp.StatusCode)
		}
		if !strings.Contains(string(b), tsP.URL) {
			t.Fatalf("403 body does not name the primary: %s", b)
		}
	}

	// Role and counters are visible for operators.
	var rs ReplicaStats
	getJSON(t, tsF.URL+"/replica/stats", &rs)
	if rs.Role != "follower" || rs.FollowURL != tsP.URL {
		t.Fatalf("replica stats = %+v", rs)
	}
	if rs.Follower == nil || rs.Follower.Applied < 1 || rs.Follower.LastAppliedUnix == 0 {
		t.Fatalf("follower counters = %+v", rs.Follower)
	}
	var prs ReplicaStats
	getJSON(t, tsP.URL+"/replica/stats", &prs)
	if prs.Role != "primary" || prs.Follower != nil {
		t.Fatalf("primary replica stats = %+v", prs)
	}
}

// TestFollowerSurvivesPrimaryDeath: when the primary dies, the
// follower keeps serving its last-applied state — that is the whole
// point of a read replica.
func TestFollowerSurvivesPrimaryDeath(t *testing.T) {
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}
	_, tsP := newIngestServer(t, Options{})
	ingestAll(t, tsP.URL, replicaItems(400))

	follower, err := NewWithOptions(cfg, Options{
		FollowURL: tsP.URL, FollowInterval: 20 * time.Millisecond, Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(follower.Close)
	tsF := httptest.NewServer(follower.Handler())
	t.Cleanup(tsF.Close)

	deadline := time.Now().Add(5 * time.Second)
	for follower.Sketch().Stats().Items != 400 {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tsP.Close() // primary dies

	// Wait until the follower has noticed (a failed poll), then reads
	// must still work against the stale-but-available state.
	deadline = time.Now().Add(5 * time.Second)
	for {
		var rs ReplicaStats
		getJSON(t, tsF.URL+"/replica/stats", &rs)
		if rs.Follower != nil && rs.Follower.Failed > 0 {
			if rs.Follower.LastError == "" {
				t.Fatalf("failed poll left no LastError: %+v", rs.Follower)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never recorded the primary's death")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st gss.Stats
	getJSON(t, tsF.URL+"/stats", &st)
	if st.Items != 400 {
		t.Fatalf("follower lost state after primary death: %d items", st.Items)
	}
}

// TestReplicationLoopsStopOnClose guards the PR 2 lazy-pool regression
// class: a server with both replication loops (plus an async ingest
// pool) must return to the baseline goroutine count after Close.
func TestReplicationLoopsStopOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}

	primary, err := NewWithOptions(cfg, Options{
		CheckpointDir: t.TempDir(), CheckpointInterval: 10 * time.Millisecond, Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	tsP := httptest.NewServer(primary.Handler())
	follower, err := NewWithOptions(cfg, Options{
		FollowURL: tsP.URL, FollowInterval: 10 * time.Millisecond, Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	tsF := httptest.NewServer(follower.Handler())

	// Start the async pool on the primary too, and let a few checkpoint
	// and poll ticks fire.
	rec := httptest.NewRecorder()
	primary.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest?async=1",
		strings.NewReader(`{"src":"a","dst":"b"}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async ingest status %d", rec.Code)
	}
	time.Sleep(30 * time.Millisecond)

	tsF.Close()
	follower.Close()
	tsP.Close()
	primary.Close()
	waitForGoroutines(t, before)
}

// snapshotFailSketch wraps a Sketch with a Snapshot that fails after
// writing a partial prefix — the torn-snapshot scenario.
type snapshotFailSketch struct{ sketch.Sketch }

func (s snapshotFailSketch) Snapshot(w io.Writer) error {
	if _, err := w.Write([]byte("partial snapshot bytes")); err != nil {
		return err
	}
	return errors.New("sketch exploded mid-snapshot")
}

// TestSnapshotErrorIsA500 is the torn-snapshot regression test: a
// mid-stream Snapshot failure must surface as an HTTP error, never as
// a truncated 200 body a follower or checkpoint would ingest.
func TestSnapshotErrorIsA500(t *testing.T) {
	base, err := sketch.New(sketch.BackendConcurrent, gss.Config{
		Width: 16, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4}, sketch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewFromSketch(snapshotFailSketch{base}, Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("snapshot status = %d, want 500 (body %q)", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("partial snapshot bytes")) {
		t.Fatalf("torn snapshot bytes leaked to the client: %q", body)
	}
}

// TestRestoreBodyCap: /restore must refuse bodies over the configured
// limit instead of buffering them whole.
func TestRestoreBodyCap(t *testing.T) {
	s, err := NewWithOptions(
		gss.Config{Width: 16, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4},
		Options{MaxRestoreBytes: 32 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts.URL+"/restore", strings.Repeat("x", 64*1024))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized restore status = %d, want 413 (body %q)", resp.StatusCode, body)
	}

	// A snapshot inside the limit still restores.
	var buf bytes.Buffer
	if err := s.Sketch().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 32*1024 {
		t.Fatalf("test snapshot unexpectedly large: %d bytes", buf.Len())
	}
	resp = post(t, ts.URL+"/restore", buf.String())
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-limit restore status = %d", resp.StatusCode)
	}
}

// TestFollowerWindowedBackend: fail-over works on the windowed backend
// too — the snapshot carries generations and the epoch cursor, so the
// follower's window is positioned exactly like the primary's.
func TestFollowerWindowedBackend(t *testing.T) {
	cfg := gss.Config{Width: 48, FingerprintBits: 16, Rooms: 2, SeqLen: 8, Candidates: 8}
	primary, err := NewWithOptions(cfg, Options{Backend: sketch.BackendWindowed,
		WindowSpan: 100, WindowGenerations: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	tsP := httptest.NewServer(primary.Handler())
	t.Cleanup(tsP.Close)
	items := windowItems(1200, 100, 5)
	ingestAll(t, tsP.URL, items)

	follower, err := NewWithOptions(cfg, Options{Backend: sketch.BackendWindowed,
		WindowSpan: 100, WindowGenerations: 4,
		FollowURL: tsP.URL, FollowInterval: 20 * time.Millisecond, Logf: quiet(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(follower.Close)

	want := primary.Sketch().Stats()
	deadline := time.Now().Add(5 * time.Second)
	for follower.Sketch().Stats() != want {
		if time.Now().After(deadline) {
			t.Fatalf("windowed follower never converged: %+v vs %+v",
				follower.Sketch().Stats(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if want.ExpiredGenerations == 0 {
		t.Fatal("test stream never rotated the window; weak test")
	}
}
