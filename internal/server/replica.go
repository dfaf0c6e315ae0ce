package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/oplog"
	"repro/internal/replica"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Replication glue: durable checkpoints, the append-only operation
// log, and read-replica fail-over (see internal/replica and
// internal/oplog for the mechanics).
//
// A primary given Options.CheckpointDir recovers from the newest valid
// checkpoint at startup, then streams periodic snapshots to that
// directory; a clean Close takes a final checkpoint, so only a crash
// can lose the tail since the last interval. Adding Options.LogDir
// closes that window to the fsync batching interval: every applied
// batch is appended to the log before its request is acknowledged, the
// checkpoint records the log sequence its snapshot covers (in a .meta
// sidecar), and recovery is checkpoint + log replay from that
// sequence. Log segments below the oldest retained checkpoint's
// sequence are retired after each checkpoint, so disk use tracks the
// checkpoint window, not total history.
//
// A server given Options.FollowURL is a read replica: it tails the
// primary's /log and applies only the delta. Its position comes from a
// /snapshot fetch — at bootstrap, and again whenever the primary
// cannot serve the log from there (offset retired, or no log at all,
// in which case every poll is a snapshot fetch) — which it restores
// into a fresh backend off to the side and atomically swaps behind the
// read path. Queries are served throughout, and every write endpoint
// answers 403.

// defaultLogSync is the fsync batching window when Options.LogSyncEvery
// is zero.
const defaultLogSync = 50 * time.Millisecond

// initReplication wires the operation log, checkpoint recovery, the
// checkpoint loop and the follower loop per s.opt. build constructs a
// fresh empty backend of the server's configuration; the follower
// restores into such a backend before swapping it in, so a restore in
// progress never blocks the read path.
func (s *Server) initReplication(build func() (sketch.Sketch, error)) error {
	opt := s.opt
	if opt.LogDir != "" && opt.FollowURL != "" {
		return errors.New("server: LogDir and FollowURL are mutually exclusive: a follower tails the primary's log, it does not originate one")
	}
	if opt.FollowURL != "" {
		hot := sketch.NewHot(s.sk)
		s.sk = hot
		s.hot = hot
	}
	if opt.LogDir != "" {
		sync := opt.LogSyncEvery
		if sync == 0 {
			sync = defaultLogSync
		}
		l, err := oplog.Open(oplog.Options{
			Dir:          opt.LogDir,
			SegmentBytes: opt.LogSegmentBytes,
			SyncEvery:    sync,
			Logf:         opt.Logf,
		})
		if err != nil {
			return err
		}
		s.olog = l
	}
	if opt.CheckpointDir != "" {
		// Recover before the checkpointer starts: the first periodic
		// checkpoint must already contain the recovered state, not race
		// with the restore.
		used, meta, err := replica.RecoverNewestWithMeta(opt.CheckpointDir, s.sk.Restore, opt.Logf)
		if err != nil {
			return err
		}
		if used != "" {
			opt.Logf("server: recovered sketch from checkpoint %s", used)
		}
		if s.olog != nil {
			if err := s.replayLog(meta); err != nil {
				return err
			}
		}
		cfg := replica.CheckpointConfig{
			Dir:      opt.CheckpointDir,
			Interval: opt.CheckpointInterval,
			Keep:     opt.CheckpointKeep,
			Snapshot: s.checkpointSnapshot,
			Logf:     opt.Logf,
		}
		if s.olog != nil {
			cfg.Meta = func() []byte {
				return []byte(strconv.FormatUint(s.snapSeq.Load(), 10))
			}
			cfg.AfterCheckpoint = s.retireLogSegments
		}
		ck, err := replica.NewCheckpointer(cfg)
		if err != nil {
			return err
		}
		s.ckpt = ck
		ck.Start()
	} else if s.olog != nil {
		// No checkpoints: the log is the only durable state; replay all
		// of it.
		if err := s.replayLog(nil); err != nil {
			return err
		}
	}
	if opt.FollowURL != "" {
		f, err := replica.NewFollower(replica.FollowerConfig{
			URL:      opt.FollowURL,
			Interval: opt.FollowInterval,
			Apply:    func(r io.Reader) error { return s.applySnapshot(build, r) },
			ApplyItems: func(items []stream.Item) error {
				// Tailed items were stamped and ordered by the primary;
				// they go straight into the hot sketch.
				s.sk.InsertBatch(items)
				return nil
			},
			MaxSnapshotBytes: opt.MaxRestoreBytes,
			Logf:             opt.Logf,
		})
		if err != nil {
			return err
		}
		s.fol = f
		f.Start()
	}
	return nil
}

// replayLog brings the sketch from the recovered checkpoint's state to
// the log's end. meta is the checkpoint's sidecar (the log sequence
// its snapshot captured); nil or empty means no checkpoint was
// recovered and the whole retained log replays.
func (s *Server) replayLog(meta []byte) error {
	var seq uint64
	if len(meta) > 0 {
		n, err := strconv.ParseUint(strings.TrimSpace(string(meta)), 10, 64)
		if err != nil {
			return fmt.Errorf("server: bad checkpoint meta %q: %v", meta, err)
		}
		seq = n
	}
	if next := s.olog.NextSeq(); seq > next {
		// The checkpoint is newer than the log — the log directory was
		// lost or swapped. Fast-forward so new appends get sequence
		// numbers the checkpoint does not already cover; the skipped
		// range reads as retired, which sends tailing followers through
		// their snapshot fallback.
		s.opt.Logf("server: checkpoint seq %d is beyond the log end %d; fast-forwarding the log", seq, next)
		return s.olog.SkipTo(seq)
	}
	if oldest := s.olog.OldestSeq(); seq < oldest {
		// The log retired records below the recovered state's sequence
		// (e.g. the checkpoint directory was wiped but the log kept
		// rolling). Nothing can resurrect the gap; replay what remains
		// so at least the retained suffix is present.
		s.opt.Logf("server: log records [%d,%d) were retired; replaying from %d (state may be missing the gap)",
			seq, oldest, oldest)
		seq = oldest
	}
	cur := s.olog.Cursor(seq)
	n := sketch.Replay(s.sk, cur, s.opt.BatchSize)
	if err := cur.Err(); err != nil {
		return fmt.Errorf("server: replaying log from seq %d: %w", seq, err)
	}
	s.replayed.Store(n)
	if n > 0 {
		s.opt.Logf("server: replayed %d log items from seq %d", n, seq)
	}
	return nil
}

// checkpointSnapshot is the Snapshot func handed to the checkpointer.
// On a logging primary it serializes the sketch into memory under the
// exclusive side of the apply barrier while capturing the log's next
// sequence — the pair the .meta sidecar persists — so replay from that
// sequence reproduces exactly the items the snapshot had absorbed.
func (s *Server) checkpointSnapshot(w io.Writer) error {
	if s.olog == nil {
		return s.sk.Snapshot(w)
	}
	s.applyMu.Lock()
	seq := s.olog.NextSeq()
	var buf bytes.Buffer
	err := s.sk.Snapshot(&buf)
	s.applyMu.Unlock()
	if err != nil {
		return err
	}
	s.snapSeq.Store(seq)
	_, err = io.Copy(w, &buf)
	return err
}

// retireLogSegments runs after each successful checkpoint: it seals
// the active segment and retires everything below the *oldest*
// retained checkpoint's sequence — not the newest — so that if the
// newest checkpoint proves corrupt at recovery, every older retained
// one still pairs with the log records it needs for replay.
func (s *Server) retireLogSegments() {
	cks, err := replica.List(s.opt.CheckpointDir)
	if err != nil || len(cks) == 0 {
		return
	}
	minSeq := uint64(math.MaxUint64)
	for _, ck := range cks {
		meta := replica.ReadMeta(ck.Path)
		if meta == nil {
			return // a pre-log checkpoint is retained; retire nothing
		}
		n, err := strconv.ParseUint(strings.TrimSpace(string(meta)), 10, 64)
		if err != nil {
			return
		}
		if n < minSeq {
			minSeq = n
		}
	}
	if minSeq == 0 || minSeq == math.MaxUint64 {
		return
	}
	if err := s.olog.Rotate(); err != nil {
		s.opt.Logf("server: rotating oplog: %v", err)
		return
	}
	s.olog.Retain(minSeq)
}

// applySnapshot installs one fetched snapshot: restore into a fresh
// backend with no locks held (readers keep hitting the old sketch),
// then swap pointers under restoreMu so compound queries never see the
// sketch change mid-chain. The fetched body gets the same size cap as
// a /restore upload — a misconfigured or hostile primary streaming
// without end must fail the poll, not OOM the replica.
func (s *Server) applySnapshot(build func() (sketch.Sketch, error), r io.Reader) error {
	fresh, err := build()
	if err != nil {
		return err
	}
	if err := fresh.Restore(io.LimitReader(r, s.opt.MaxRestoreBytes)); err != nil {
		return err
	}
	s.restoreMu.Lock()
	s.hot.Swap(fresh)
	s.restoreMu.Unlock()
	return nil
}

// follower reports whether this server is a read replica — keyed on
// the running poll loop, not the FollowURL option, so a NewFromSketch
// server (where replication options are documented as not wired) never
// 403s writes it would silently drop.
func (s *Server) follower() bool { return s.fol != nil }

// rejectFollowerWrite answers 403 on a write endpoint of a read
// replica and reports whether it did. Followers converge on whatever
// the primary holds at the next poll, so accepting a local write would
// silently drop it.
func (s *Server) rejectFollowerWrite(w http.ResponseWriter) bool {
	if !s.follower() {
		return false
	}
	httpError(w, http.StatusForbidden,
		"read-only follower (following %s): send writes to the primary", s.opt.FollowURL)
	return true
}

// CheckpointNow forces one durable checkpoint and returns its path.
// It errors when the server has no checkpoint directory configured.
func (s *Server) CheckpointNow() (string, error) {
	if s.ckpt == nil {
		return "", errors.New("server: no checkpoint directory configured")
	}
	return s.ckpt.CheckpointNow()
}

// ReplicaStats is the /replica/stats payload: the server's replication
// role plus checkpoint, operation-log and follower counters when
// configured. ReplayedItems is how many log items startup recovery
// replayed on top of the recovered checkpoint.
type ReplicaStats struct {
	Role          string                   `json:"role"` // "primary" or "follower"
	FollowURL     string                   `json:"follow_url,omitempty"`
	Checkpoint    *replica.CheckpointStats `json:"checkpoint,omitempty"`
	Log           *oplog.Stats             `json:"log,omitempty"`
	ReplayedItems int64                    `json:"replayed_items,omitempty"`
	Follower      *replica.FollowerStats   `json:"follower,omitempty"`
}

func (s *Server) replicaStats() ReplicaStats {
	st := ReplicaStats{Role: "primary"}
	if s.follower() {
		st.Role = "follower"
		st.FollowURL = s.opt.FollowURL
	}
	if s.ckpt != nil {
		cs := s.ckpt.Stats()
		st.Checkpoint = &cs
	}
	if s.olog != nil {
		ls := s.olog.Stats()
		st.Log = &ls
		st.ReplayedItems = s.replayed.Load()
	}
	if s.fol != nil {
		fs := s.fol.Stats()
		st.Follower = &fs
	}
	return st
}

func (s *Server) handleReplicaStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.replicaStats())
}

// handleCheckpoint (POST /checkpoint) forces a checkpoint — the ops
// hook for taking a durable point right before maintenance.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	path, err := s.CheckpointNow()
	if err != nil {
		if s.ckpt == nil {
			httpError(w, http.StatusConflict, "%v", err)
		} else {
			httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		}
		return
	}
	writeJSON(w, map[string]string{"path": path})
}
