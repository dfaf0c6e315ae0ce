package replica

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
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
)

// snapshotBytes returns a Snapshot func that always writes b.
func snapshotBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

func TestCheckpointWriteAndRecover(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCheckpointer(CheckpointConfig{
		Dir: dir, Interval: time.Hour, Snapshot: snapshotBytes([]byte("state-1")),
	})
	if err != nil {
		t.Fatal(err)
	}
	path, err := c.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "state-1" {
		t.Fatalf("checkpoint content = %q", got)
	}
	st := c.Stats()
	if st.Written != 1 || st.LastSeq != 1 || st.LastBytes != 7 {
		t.Fatalf("stats = %+v", st)
	}

	var restored []byte
	used, err := RecoverNewest(dir, func(r io.Reader) error {
		restored, _ = io.ReadAll(r)
		return nil
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if used != path || string(restored) != "state-1" {
		t.Fatalf("recovered %q from %q", restored, used)
	}
}

func TestCheckpointPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	var gen atomic.Int64
	c, err := NewCheckpointer(CheckpointConfig{
		Dir: dir, Interval: time.Hour, Keep: 2,
		Snapshot: func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "state-%d", gen.Add(1))
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	cks, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 || cks[0].Seq != 4 || cks[1].Seq != 5 {
		t.Fatalf("retained checkpoints = %+v", cks)
	}
	if st := c.Stats(); st.Pruned != 3 {
		t.Fatalf("pruned = %d, want 3", st.Pruned)
	}

	// A new Checkpointer over the same dir continues the sequence
	// instead of overwriting history.
	c2, err := NewCheckpointer(CheckpointConfig{
		Dir: dir, Interval: time.Hour, Snapshot: snapshotBytes([]byte("x"))})
	if err != nil {
		t.Fatal(err)
	}
	path, err := c2.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != checkpointFile(6) {
		t.Fatalf("restarted seq = %s, want %s", filepath.Base(path), checkpointFile(6))
	}
}

// TestRecoverSkipsCorrupt: newest valid wins; corrupt checkpoints are
// skipped with a warning, not fatal.
func TestRecoverSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFile(1)), []byte("good"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFile(2)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned int
	used, err := RecoverNewest(dir, func(r io.Reader) error {
		b, _ := io.ReadAll(r)
		if string(b) != "good" {
			return errors.New("bad snapshot")
		}
		return nil
	}, func(string, ...interface{}) { warned++ })
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(used) != checkpointFile(1) {
		t.Fatalf("recovered from %s, want the older valid checkpoint", used)
	}
	if warned != 1 {
		t.Fatalf("warnings = %d, want 1", warned)
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	used, err := RecoverNewest(filepath.Join(t.TempDir(), "nope"), func(io.Reader) error { return nil }, nil)
	if err != nil || used != "" {
		t.Fatalf("missing dir: used=%q err=%v", used, err)
	}
}

// TestCheckpointFailureLeavesNoFile: a failing Snapshot must not leave
// a checkpoint (or stray temp file) behind.
func TestCheckpointFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCheckpointer(CheckpointConfig{
		Dir: dir, Interval: time.Hour,
		Snapshot: func(w io.Writer) error {
			w.Write([]byte("partial"))
			return errors.New("mid-stream failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckpointNow(); err == nil {
		t.Fatal("failing snapshot reported success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed checkpoint left files: %v", entries)
	}
	if st := c.Stats(); st.Failed != 1 || st.Written != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCheckpointerCloseStopsLoop: the loop goroutine exits on Close
// and a final checkpoint lands even if no tick ever fired.
func TestCheckpointerCloseStopsLoop(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	c, err := NewCheckpointer(CheckpointConfig{
		Dir: dir, Interval: time.Hour, Snapshot: snapshotBytes([]byte("final"))})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Close()
	c.Close() // idempotent
	waitForGoroutines(t, before)
	cks, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 1 {
		t.Fatalf("final checkpoint missing: %+v", cks)
	}
}

func TestCheckpointerCloseWithoutStart(t *testing.T) {
	c, err := NewCheckpointer(CheckpointConfig{
		Dir: t.TempDir(), Snapshot: snapshotBytes(nil)})
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // must not hang or panic
}

func TestFollowerPollsAndApplies(t *testing.T) {
	var state atomic.Value
	state.Store([]byte("v1"))
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Write(state.Load().([]byte))
	}))
	defer primary.Close()

	applied := make(chan []byte, 16)
	f, err := NewFollower(FollowerConfig{
		URL: primary.URL, Interval: 10 * time.Millisecond,
		ApplyItems: noItems,
		Apply: func(r io.Reader) error {
			b, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			applied <- b
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()

	// The first poll is immediate.
	select {
	case b := <-applied:
		if !bytes.Equal(b, []byte("v1")) {
			t.Fatalf("first apply = %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("first poll did not happen promptly")
	}
	// Subsequent polls see new primary state.
	state.Store([]byte("v2"))
	deadline := time.After(5 * time.Second)
	for {
		select {
		case b := <-applied:
			if bytes.Equal(b, []byte("v2")) {
				st := f.Stats()
				if st.Applied < 2 || st.Failed != 0 || st.LastAppliedUnix == 0 {
					t.Fatalf("stats = %+v", st)
				}
				return
			}
		case <-deadline:
			t.Fatal("follower never saw updated state")
		}
	}
}

// TestFollowerCountsFailures: a primary replying non-200, then an
// Apply error, both count as failures without stopping the loop.
func TestFollowerCountsFailures(t *testing.T) {
	var mode atomic.Int32 // 0: http 500, 1: ok
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mode.Load() == 0 {
			http.Error(w, "snapshot failed", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer primary.Close()

	applyErr := errors.New("apply failed")
	var applyFail atomic.Bool
	applyFail.Store(true)
	f, err := NewFollower(FollowerConfig{
		URL: primary.URL, Interval: 5 * time.Millisecond,
		ApplyItems: noItems,
		Apply: func(r io.Reader) error {
			io.Copy(io.Discard, r)
			if applyFail.Load() {
				return applyErr
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()

	waitFor(t, "an HTTP failure", func() bool { return f.Stats().Failed >= 1 })
	if st := f.Stats(); st.LastError == "" {
		t.Fatalf("no LastError after failure: %+v", st)
	}
	mode.Store(1) // primary healthy, apply still failing
	failedBefore := f.Stats().Failed
	waitFor(t, "an apply failure", func() bool { return f.Stats().Failed > failedBefore })
	applyFail.Store(false)
	waitFor(t, "a successful apply", func() bool { return f.Stats().Applied >= 1 })
	if st := f.Stats(); st.LastError != "" {
		t.Fatalf("LastError not cleared after success: %+v", st)
	}
}

// TestFollowerCloseStopsLoop: the poll goroutine exits on Close even
// while the primary is unreachable.
func TestFollowerCloseStopsLoop(t *testing.T) {
	before := runtime.NumGoroutine()
	f, err := NewFollower(FollowerConfig{
		URL: "http://127.0.0.1:0", Interval: 5 * time.Millisecond,
		Apply:      func(io.Reader) error { return nil },
		ApplyItems: noItems,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	time.Sleep(20 * time.Millisecond) // let a few failing polls happen
	f.Close()
	f.Close() // idempotent
	waitForGoroutines(t, before)
}

// noItems is the ApplyItems of followers whose primary serves no log:
// they only ever apply snapshots.
func noItems([]stream.Item) error { return nil }

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to %d (now %d)", want, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
