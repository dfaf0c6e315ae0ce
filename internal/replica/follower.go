package replica

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// URL is the primary's base URL; the follower tails URL + "/log"
	// and fetches URL + "/snapshot" to bootstrap or resynchronize.
	URL string
	// Interval between polls (default 2s). The first poll happens
	// immediately on Start, so a fresh follower serves current reads
	// within one interval.
	Interval time.Duration
	// Apply installs one fetched snapshot into the local sketch. It is
	// called from the poll goroutine with the response body; the body
	// must not be retained after it returns.
	Apply func(io.Reader) error
	// ApplyItems applies one batch of tailed items in log order.
	ApplyItems func([]stream.Item) error
	// TailBatch caps the items requested per /log fetch (default 8192).
	TailBatch int
	// MaxSnapshotBytes bounds the buffered snapshot body (default
	// 1 GiB): bodies are buffered so byte-identical snapshots can be
	// skipped by hash without applying.
	MaxSnapshotBytes int64
	// Client is the HTTP client to poll with; nil uses a client with a
	// timeout derived from Interval.
	Client *http.Client
	// Logf receives warnings (failed polls); nil discards them.
	Logf func(string, ...interface{})
}

// FollowerStats counts a Follower's polls; served by the HTTP server's
// /replica/stats. Staleness is the time since the last successful
// poll — the upper bound on how far the replica's reads trail the
// primary (plus one fetch in flight). Mode is "tail" while the follower
// holds a log position and "snapshot" while it has none (before the
// bootstrap, or following a primary without a log). LogSeq is the next
// log sequence the follower will read, LagItems how many items the
// primary reported beyond it at the last poll, and LagBytes that lag
// scaled by the follower's observed average record size (an estimate).
type FollowerStats struct {
	Polls           int64  `json:"polls"`
	Applied         int64  `json:"applied"`
	Failed          int64  `json:"failed"`
	LastAppliedUnix int64  `json:"last_applied_unix,omitempty"`
	StalenessMs     int64  `json:"staleness_ms"`
	LastError       string `json:"last_error,omitempty"`

	Mode             string `json:"mode"` // "snapshot" or "tail"
	SkippedUnchanged int64  `json:"skipped_unchanged"`
	SnapshotBytes    int64  `json:"snapshot_bytes"`

	TailPolls         int64  `json:"tail_polls,omitempty"`
	TailedItems       int64  `json:"tailed_items,omitempty"`
	TailedBytes       int64  `json:"tailed_bytes,omitempty"`
	SnapshotFallbacks int64  `json:"snapshot_fallbacks,omitempty"`
	LogSeq            uint64 `json:"log_seq,omitempty"`
	LagItems          int64  `json:"lag_items"`
	LagBytes          int64  `json:"lag_bytes"`
}

// Follower keeps a local sketch in sync with a primary by tailing its
// operation log: each poll reads URL+"/log?from=<seq>" and applies only
// the items that arrived since the follower's position. The position
// is bootstrapped from one snapshot fetch (the primary reports the
// snapshot's log sequence in the X-Log-Seq header), and whenever the
// primary has retired the follower's offset — or has no log at all —
// the follower falls back to a snapshot fetch and resumes tailing from
// there; a primary that never reports a sequence is followed by
// snapshot polls alone. Start launches the loop; Close stops it.
type Follower struct {
	cfg FollowerConfig

	mu          sync.Mutex
	polls       int64
	applied     int64
	failed      int64
	lastApplied time.Time
	lastError   string
	skipped     int64
	snapBytes   int64
	tailPolls   int64
	tailItems   int64
	tailBytes   int64
	fallbacks   int64
	lagItems    int64

	// Tail position; written only by the poll goroutine, under mu so
	// Stats can read it.
	pos    uint64
	hasPos bool
	// lastHash fingerprints the last applied snapshot body so an
	// unchanged snapshot is not re-applied.
	lastHash [sha256.Size]byte
	hasHash  bool

	startOnce sync.Once
	closeOnce sync.Once
	started   atomic.Bool
	stop      chan struct{}
	done      chan struct{}
}

// NewFollower validates cfg. The loop is not started until Start.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("replica: FollowerConfig.URL is required")
	}
	if cfg.Apply == nil {
		return nil, fmt.Errorf("replica: FollowerConfig.Apply is required")
	}
	if cfg.ApplyItems == nil {
		return nil, fmt.Errorf("replica: FollowerConfig.ApplyItems is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.TailBatch < 1 {
		cfg.TailBatch = 8192
	}
	if cfg.MaxSnapshotBytes < 1 {
		cfg.MaxSnapshotBytes = 1 << 30
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if cfg.Client == nil {
		// A poll that outlives several intervals is worse than a failed
		// one — the next poll would fetch fresher state anyway.
		timeout := 4 * cfg.Interval
		if timeout < 10*time.Second {
			timeout = 10 * time.Second
		}
		cfg.Client = &http.Client{Timeout: timeout}
	}
	cfg.URL = strings.TrimRight(cfg.URL, "/")
	return &Follower{cfg: cfg,
		stop: make(chan struct{}), done: make(chan struct{})}, nil
}

// Start launches the poll loop, fetching once immediately.
func (f *Follower) Start() {
	f.startOnce.Do(func() {
		f.started.Store(true)
		go f.loop()
	})
}

func (f *Follower) loop() {
	defer close(f.done)
	f.pollOnce()
	t := time.NewTicker(f.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.pollOnce()
		}
	}
}

// Close stops the poll loop and waits for it to exit. Safe to call
// more than once.
func (f *Follower) Close() {
	f.closeOnce.Do(func() {
		if !f.started.Load() {
			return
		}
		close(f.stop)
		<-f.done
	})
}

// pollResult reports what one poll did, for the counters.
type pollResult struct {
	applied bool // new state was applied
	skipped bool // snapshot fetched but byte-identical, apply skipped
}

func (f *Follower) pollOnce() {
	res, err := f.tailOnce()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.polls++
	if err != nil {
		f.failed++
		f.lastError = err.Error()
		f.cfg.Logf("replica: poll %s: %v", f.cfg.URL, err)
		return
	}
	f.lastError = ""
	f.lastApplied = time.Now()
	if res.applied {
		f.applied++
	}
	if res.skipped {
		f.skipped++
	}
}

// errLogUnavailable marks tail fetches the primary cannot serve from
// the follower's position (offset retired, no log, position beyond the
// log); a snapshot fetch resynchronizes.
var errLogUnavailable = errors.New("log unavailable at position")

func (f *Follower) tailOnce() (pollResult, error) {
	// The position bootstraps from a snapshot: the primary stamps its
	// /snapshot response with the log sequence the body corresponds to.
	if !f.hasPos {
		return f.fetchSnapshot()
	}
	var res pollResult
	for {
		applied, caughtUp, err := f.fetchLog()
		if errors.Is(err, errLogUnavailable) {
			f.mu.Lock()
			f.fallbacks++
			f.hasPos = false
			f.mu.Unlock()
			return f.fetchSnapshot()
		}
		if err != nil {
			return res, err
		}
		res.applied = res.applied || applied
		if caughtUp {
			return res, nil
		}
	}
}

// fetchLog reads one batch from the primary's log at f.pos and applies
// it, advancing the position. caughtUp reports whether the primary had
// nothing further at response time.
func (f *Follower) fetchLog() (applied, caughtUp bool, err error) {
	u := fmt.Sprintf("%s/log?from=%d&max=%d", f.cfg.URL, f.pos, f.cfg.TailBatch)
	resp, err := f.cfg.Client.Get(u)
	if err != nil {
		return false, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	f.mu.Lock()
	f.tailPolls++
	f.mu.Unlock()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone, http.StatusNotFound, http.StatusRequestedRangeNotSatisfiable:
		// Retired offset, no log on the primary, or a position beyond
		// its end (the primary lost or reset its log): resync.
		return false, false, fmt.Errorf("%w (status %d)", errLogUnavailable, resp.StatusCode)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return false, false, fmt.Errorf("log status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, f.cfg.MaxSnapshotBytes))
	if err != nil {
		return false, false, fmt.Errorf("reading log body: %w", err)
	}
	items, err := stream.ReadAll(bytes.NewReader(body))
	if err != nil {
		return false, false, fmt.Errorf("decoding log body: %w", err)
	}
	next, err := strconv.ParseUint(resp.Header.Get("X-Log-Next"), 10, 64)
	if err != nil {
		return false, false, fmt.Errorf("bad X-Log-Next header: %w", err)
	}
	if uint64(len(items)) != next-f.pos {
		return false, false, fmt.Errorf("log body holds %d items for range [%d,%d)", len(items), f.pos, next)
	}
	if len(items) > 0 {
		if err := f.cfg.ApplyItems(items); err != nil {
			return false, false, fmt.Errorf("applying log items: %w", err)
		}
	}
	end, _ := strconv.ParseUint(resp.Header.Get("X-Log-End"), 10, 64)
	f.mu.Lock()
	f.pos = next // under mu so Stats can read it from another goroutine
	f.tailItems += int64(len(items))
	f.tailBytes += int64(len(body))
	if end >= next {
		f.lagItems = int64(end - next)
	}
	f.mu.Unlock()
	return len(items) > 0, end <= next, nil
}

// fetchSnapshot fetches the primary's full snapshot, skips the apply
// when the body is byte-identical to the last applied one, and adopts
// the snapshot's log sequence, when the primary reports one, as the
// tail position.
func (f *Follower) fetchSnapshot() (pollResult, error) {
	resp, err := f.cfg.Client.Get(f.cfg.URL + "/snapshot")
	if err != nil {
		return pollResult{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return pollResult{}, fmt.Errorf("snapshot status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, f.cfg.MaxSnapshotBytes))
	if err != nil {
		return pollResult{}, fmt.Errorf("reading snapshot: %w", err)
	}
	f.mu.Lock()
	f.snapBytes += int64(len(body))
	f.mu.Unlock()
	if seqRaw := resp.Header.Get("X-Log-Seq"); seqRaw != "" {
		if seq, err := strconv.ParseUint(seqRaw, 10, 64); err == nil {
			f.mu.Lock()
			f.pos = seq
			f.lagItems = 0
			f.hasPos = true
			f.mu.Unlock()
		}
	}
	hash := sha256.Sum256(body)
	if f.hasHash && hash == f.lastHash {
		// Byte-identical to what is already installed: rebuilding and
		// hot-swapping an equal sketch would only churn memory.
		return pollResult{skipped: true}, nil
	}
	if err := f.cfg.Apply(bytes.NewReader(body)); err != nil {
		return pollResult{}, err
	}
	f.lastHash, f.hasHash = hash, true
	return pollResult{applied: true}, nil
}

// Stats snapshots the poll counters.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStats{
		Polls:             f.polls,
		Applied:           f.applied,
		Failed:            f.failed,
		LastError:         f.lastError,
		Mode:              "snapshot",
		SkippedUnchanged:  f.skipped,
		SnapshotBytes:     f.snapBytes,
		TailPolls:         f.tailPolls,
		TailedItems:       f.tailItems,
		TailedBytes:       f.tailBytes,
		SnapshotFallbacks: f.fallbacks,
		LogSeq:            f.pos,
		LagItems:          f.lagItems,
	}
	if f.hasPos {
		st.Mode = "tail"
	}
	if f.tailItems > 0 {
		st.LagBytes = f.lagItems * (f.tailBytes / f.tailItems)
	}
	if !f.lastApplied.IsZero() {
		st.LastAppliedUnix = f.lastApplied.Unix()
		st.StalenessMs = time.Since(f.lastApplied).Milliseconds()
	}
	return st
}
