package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/oplog"
	"repro/internal/stream"
)

// Spill: durable write absorption for down partitions. Without it, a
// write touching a down member answers 429 and the producer carries
// the retry burden for as long as the outage lasts. With
// Config.SpillDir set, the router instead appends the down partition's
// items to a per-member append-only spill log (fsynced before the ack,
// so a router crash does not lose absorbed writes) and acknowledges
// them as "spilled"; when the health prober sees the member again, a
// replay goroutine drains the log into the member in order and then
// retires the segments. The spill is bounded by Config.SpillMaxBytes —
// past the cap the router falls back to 429 + Retry-After, the same
// backpressure convention as the bounded ingest queue, because an
// outage that outlasts the budget must slow producers down rather
// than fill the disk.
//
// Replay interleaves with live writes when the member comes back
// (fresh writes forward directly while older spilled items drain),
// which is sound for sketch semantics: inserts are commutative
// weight accumulation, so only the multiset of items matters, not
// their order. The cluster equivalence suite proves exactly that.

// defaultSpillMaxBytes bounds one member's spill log when
// Config.SpillMaxBytes is zero.
const defaultSpillMaxBytes = 64 << 20

// errSpillFull reports an append refused by the spill budget.
var errSpillFull = errors.New("cluster: spill log full")

// spill is one member's durable write buffer.
type spill struct {
	log *oplog.Log
	max int64

	mu  sync.Mutex
	pos uint64 // next sequence to replay toward the member

	spilledItems  atomic.Int64
	replayedItems atomic.Int64
	replays       atomic.Int64 // completed drains
	replaying     atomic.Bool  // CAS guard: at most one replay per member
}

// spillDirName flattens a member base URL into a directory name: the
// scheme separator and every path-hostile byte become '_', keeping the
// host and port readable so operators can match directories to members.
func spillDirName(memberURL string) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-':
			return r
		default:
			return '_'
		}
	}, memberURL)
	return strings.Trim(s, "_")
}

// openSpill opens (or creates) the spill log for one member. A
// non-empty log left by a previous router run starts fully pending:
// the first healthy probe of the member replays it.
func openSpill(dir, memberURL string, maxBytes int64, logf func(string, ...interface{})) (*spill, error) {
	if maxBytes <= 0 {
		maxBytes = defaultSpillMaxBytes
	}
	l, err := oplog.Open(oplog.Options{
		Dir: filepath.Join(dir, spillDirName(memberURL)),
		// Sync every append: the spill ack is a durability promise made
		// on the degraded path, where throughput is already secondary.
		SyncEvery: -1,
		Logf:      logf,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: spill for %s: %w", memberURL, err)
	}
	return &spill{log: l, max: maxBytes, pos: l.OldestSeq()}, nil
}

// append absorbs one batch of GSS1 item payloads — the tails of the
// GSB1 records the router routes (stream.HashedRecordPayload), so a
// down partition's records go to the spill log with no re-encode, in
// the same record format older spill logs hold. It refuses the batch
// when the log is at budget; the check is against bytes already on
// disk, so one batch may overshoot the cap slightly and the next one
// is refused.
func (sp *spill) append(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.log.Stats().SizeBytes >= sp.max {
		return errSpillFull
	}
	if _, _, err := sp.log.AppendEncoded(payloads); err != nil {
		return err
	}
	sp.spilledItems.Add(int64(len(payloads)))
	return nil
}

// atBudget reports whether the log is at its byte budget, meaning an
// append right now would be refused. Advisory: a concurrent append can
// land between this check and the caller's, which only means one more
// batch of overshoot past the cap.
func (sp *spill) atBudget() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.log.Stats().SizeBytes >= sp.max
}

// pendingItems is how many absorbed items the member has not yet seen.
func (sp *spill) pendingItems() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return int64(sp.log.NextSeq() - sp.pos)
}

func (sp *spill) close() { _ = sp.log.Close() }

// maybeReplay starts the replay goroutine for m if it has pending
// spilled items and no replay is already running. Called from the
// prober on every healthy verdict — not just down→up transitions — so
// a spill populated before the router restarted, or left over from a
// replay the member interrupted by going down again, still drains.
// While a membership change is in flight replay stays paused (the
// migration preflight refuses to start over a pending spill, and a
// replay racing the copy phase would corrupt the drop accounting);
// the next probe tick after the change finishes resumes it.
func (rt *Router) maybeReplay(m *member) {
	sp := m.spill
	if sp == nil || sp.pendingItems() == 0 || rt.migrating() {
		return
	}
	if !sp.replaying.CompareAndSwap(false, true) {
		return
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		defer sp.replaying.Store(false)
		rt.replaySpill(m)
	}()
}

// replaySpill drains m's spill log in sequence order, one batch at a
// time, and retires the log once it is empty. Each batch is routed by
// the CURRENT topology, not blindly at m: a membership change that
// completed while the spill sat pending may have moved some of the
// spilled keys to another member, and commutative inserts make the
// re-routed delivery equivalent. Any failure just returns: the target
// either went down (the prober will notice and re-kick the replay on
// recovery) or the router is closing.
func (rt *Router) replaySpill(m *member) {
	sp := m.spill
	var drained int64
	for {
		if rt.ctx.Err() != nil {
			return
		}
		sp.mu.Lock()
		pos := sp.pos
		sp.mu.Unlock()
		batch := make([]stream.Item, 0, rt.cfg.BatchSize)
		next, err := sp.log.ReadFrom(pos, rt.cfg.BatchSize, func(it stream.Item) error {
			batch = append(batch, it)
			return nil
		})
		if err != nil {
			rt.cfg.Logf("cluster: reading spill for %s at %d: %v", m.primary, pos, err)
			return
		}
		if len(batch) == 0 {
			// Drained. Retire the replayed records — unless an append
			// slipped in after the read, in which case the next probe
			// tick restarts the replay.
			sp.mu.Lock()
			if sp.log.NextSeq() == sp.pos {
				if err := sp.log.Rotate(); err == nil {
					sp.log.Retain(sp.pos)
				}
			}
			sp.mu.Unlock()
			sp.replays.Add(1)
			if drained > 0 {
				rt.cfg.Logf("cluster: member %s spill drained (%d items replayed)", m.primary, drained)
			}
			return
		}
		// Spilled payloads keep no hashes; each item is hashed once
		// here, on its way back in.
		t := rt.topology()
		groups := make(map[*member][]stream.HashedItem)
		for _, it := range batch {
			h := stream.HashItem(it)
			g := t.ownerHash(h.HSrc)
			groups[g] = append(groups[g], h)
		}
		for target, group := range groups {
			if _, err := rt.post(rt.ctx, target, group); err != nil {
				if isTransport(err) && rt.ctx.Err() == nil {
					rt.markDown(target, "spill replay", err)
				}
				return
			}
		}
		sp.mu.Lock()
		sp.pos = next
		sp.mu.Unlock()
		sp.replayedItems.Add(int64(len(batch)))
		drained += int64(len(batch))
	}
}

// spillStatus snapshots one member's spill counters for /cluster/stats.
func (sp *spill) status() *SpillStatus {
	sp.mu.Lock()
	pending := int64(sp.log.NextSeq() - sp.pos)
	sp.mu.Unlock()
	return &SpillStatus{
		SpilledItems:  sp.spilledItems.Load(),
		PendingItems:  pending,
		PendingBytes:  sp.log.Stats().SizeBytes,
		ReplayedItems: sp.replayedItems.Load(),
		Replays:       sp.replays.Load(),
		Replaying:     sp.replaying.Load(),
	}
}

// SpillStatus is the spill block of one member's /cluster/stats entry.
type SpillStatus struct {
	SpilledItems  int64 `json:"spilled_items"`  // absorbed since the router started
	PendingItems  int64 `json:"pending_items"`  // absorbed but not yet replayed
	PendingBytes  int64 `json:"pending_bytes"`  // spill log size on disk
	ReplayedItems int64 `json:"replayed_items"` // delivered to the recovered member
	Replays       int64 `json:"replays"`        // completed drains
	Replaying     bool  `json:"replaying"`      // a drain is running right now
}
