package server

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/gss"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// Partition export/drop: the server side of live migration. The
// cluster router names the membership change as two URL lists —
// ?old=a,b,c&new=a,b,c,d — and the server evaluates the same
// rendezvous function the router's ring uses (hashing.Rendezvous over
// Hash64 of the normalized member URLs), so "which keys move" is one
// pure function both sides compute identically, with no coordination
// and no key list on the wire.
//
//	GET  /partition/export?old=...&new=...  moving edges as a GSS1 item
//	     stream; X-Log-Seq fences the body against the operation log
//	POST /partition/drop?old=...&new=...&items=N  drop the moved edges
//	     and subtract N ingested items (the count the new owner
//	     absorbed, which the router tracked)
//	POST /partition/absorb?items=N  add N to the item counter — the
//	     drain-mode rebase of the aggregation delta onto a surviving
//	     member (exported edges under-count the items they aggregate)

// partitionSeeds parses a comma-separated member-URL list into
// rendezvous seeds, normalizing each URL the way the cluster ring does
// (trimmed whitespace, no trailing slash).
func partitionSeeds(csv string) ([]uint64, error) {
	parts := strings.Split(csv, ",")
	seeds := make([]uint64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			return nil, errors.New("empty member URL in list")
		}
		seeds = append(seeds, hashing.Hash64(p))
	}
	return seeds, nil
}

// movingPredicate builds the moving-key predicate from the request's
// old/new member lists: a key moves when the two rings elect different
// owners. Winners are compared by seed value, not list index, so the
// two lists may order their common members differently.
func movingPredicate(r *http.Request) (func(id string) bool, error) {
	oldSeeds, err := partitionSeeds(r.URL.Query().Get("old"))
	if err != nil {
		return nil, errors.New("old must be a comma-separated member-URL list: " + err.Error())
	}
	newSeeds, err := partitionSeeds(r.URL.Query().Get("new"))
	if err != nil {
		return nil, errors.New("new must be a comma-separated member-URL list: " + err.Error())
	}
	return func(id string) bool {
		kh := hashing.Hash64(id)
		return oldSeeds[hashing.Rendezvous(oldSeeds, kh)] !=
			newSeeds[hashing.Rendezvous(newSeeds, kh)]
	}, nil
}

// handlePartitionExport (GET /partition/export?old=&new=) streams the
// moving sketch edges as a GSS1 item stream. Like /snapshot, the body
// is buffered under the apply barrier on a logging primary, so the
// X-Log-Seq header names exactly the log offset this body covers: the
// migrator copies the body, then tails /log?from=X-Log-Seq to close
// the gap — no write is in both. X-Partition-Edges and
// X-Partition-Mixed carry the export report.
func (s *Server) handlePartitionExport(w http.ResponseWriter, r *http.Request) {
	moving, err := movingPredicate(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var buf bytes.Buffer
	sw := stream.NewWriter(&buf)
	var seq uint64
	var fencedItems int64
	var rep gss.PartitionReport
	if s.olog != nil {
		s.applyMu.Lock()
		seq = s.olog.NextSeq()
		fencedItems = s.sk.Stats().Items
		rep, err = s.sk.ExportPartition(moving, sw.WriteItem)
		s.applyMu.Unlock()
	} else {
		fencedItems = s.sk.Stats().Items
		rep, err = s.sk.ExportPartition(moving, sw.WriteItem)
	}
	if err == nil {
		err = sw.Flush()
	}
	if err != nil {
		if errors.Is(err, gss.ErrNoNodeIndex) {
			httpError(w, http.StatusNotImplemented, "partition export: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "partition export: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if s.olog != nil {
		w.Header().Set("X-Log-Seq", strconv.FormatUint(seq, 10))
	}
	w.Header().Set("X-Partition-Edges", strconv.FormatInt(rep.Edges, 10))
	w.Header().Set("X-Partition-Mixed", strconv.FormatInt(rep.Mixed, 10))
	// The sketch's whole item count at the fence. When the export covers
	// the member's entire key set (a drain), this is exactly the moving
	// item count, and the migrator rebases (items − edges) onto a gainer
	// after cutover so aggregation does not deflate the cluster total.
	w.Header().Set("X-Partition-Items", strconv.FormatInt(fencedItems, 10))
	_, _ = w.Write(buf.Bytes())
}

// handlePartitionDrop (POST /partition/drop?old=&new=&items=N) removes
// the moved edges after the new owner absorbed them. It mirrors
// /restore's durability discipline: the sketch changes wholesale, so
// on a logging primary the log is rotated and retired under the apply
// barrier (replay must not resurrect moved edges; tailing followers
// get 410 and re-snapshot) and a checkpoint is forced.
func (s *Server) handlePartitionDrop(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	moving, err := movingPredicate(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var items int64
	if raw := r.URL.Query().Get("items"); raw != "" {
		items, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || items < 0 {
			httpError(w, http.StatusBadRequest, "items must be a non-negative integer")
			return
		}
	}
	var rep gss.PartitionReport
	if s.olog != nil {
		s.applyMu.Lock()
		s.restoreMu.Lock()
		rep, err = s.sk.DropPartition(moving, items)
		if err == nil {
			if rerr := s.olog.Rotate(); rerr != nil {
				s.opt.Logf("server: rotating oplog after partition drop: %v", rerr)
			}
			s.olog.Retain(s.olog.NextSeq())
		}
		s.restoreMu.Unlock()
		s.applyMu.Unlock()
		if err == nil && s.ckpt != nil {
			if _, cerr := s.ckpt.CheckpointNow(); cerr != nil {
				s.opt.Logf("server: checkpoint after partition drop: %v", cerr)
			}
		}
	} else {
		s.restoreMu.Lock()
		rep, err = s.sk.DropPartition(moving, items)
		s.restoreMu.Unlock()
	}
	if err != nil {
		if errors.Is(err, gss.ErrNoNodeIndex) {
			httpError(w, http.StatusNotImplemented, "partition drop: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "partition drop: %v", err)
		return
	}
	writeJSON(w, map[string]interface{}{
		"status": "dropped",
		"edges":  rep.Edges,
		"items":  rep.Items,
		"mixed":  rep.Mixed,
	})
}

// handlePartitionAbsorb (POST /partition/absorb?items=N) adds N to the
// stream-item counter. The absorb is not an operation-log entry (it
// carries no edges, and followers converge through snapshots), so on a
// checkpointing primary a checkpoint is forced to make it survive a
// restart.
func (s *Server) handlePartitionAbsorb(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	items, err := strconv.ParseInt(r.URL.Query().Get("items"), 10, 64)
	if err != nil || items < 0 {
		httpError(w, http.StatusBadRequest, "items must be a non-negative integer")
		return
	}
	if s.olog != nil {
		s.applyMu.Lock()
		err = s.sk.AbsorbItems(items)
		s.applyMu.Unlock()
		if err == nil && s.ckpt != nil {
			if _, cerr := s.ckpt.CheckpointNow(); cerr != nil {
				s.opt.Logf("server: checkpoint after partition absorb: %v", cerr)
			}
		}
	} else {
		err = s.sk.AbsorbItems(items)
	}
	if err != nil {
		if errors.Is(err, gss.ErrNoNodeIndex) {
			httpError(w, http.StatusNotImplemented, "partition absorb: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "partition absorb: %v", err)
		return
	}
	writeJSON(w, map[string]interface{}{"status": "absorbed", "items": items})
}
