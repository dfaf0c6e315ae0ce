package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// Live partition migration. A membership change (add a member, drain
// one) re-maps exactly the keys whose rendezvous winner changes between
// the old and new member lists; the migrator moves those partitions
// while the cluster keeps serving:
//
//  1. copy      — each losing member streams its moving edges
//                 (GET /partition/export, fenced by X-Log-Seq) and the
//                 router forwards them to their new owners.
//  2. catchup   — the router tails each loser's operation log from the
//                 export fence, forwarding the moving items, until the
//                 lag is one batch.
//  3. handoff   — under the topology write fence (Router.topoMu) a
//                 two-ring topology goes live: every write to a moving
//                 key now reaches BOTH its old and its new owner
//                 (inserts are commutative weight accumulation, so the
//                 double delivery is sound), and each loser's log end
//                 is captured with no write in flight.
//  4. drain     — the remaining log window (cursor, end] is relayed;
//                 anything after end was double-written, so the two
//                 sources of items at the gainer never overlap.
//  5. cutover   — under the write fence again: the per-loser drop
//                 budget (forwarded + double-written items) is final,
//                 the journal commits, and the new single-ring topology
//                 is installed with one pointer swap.
//  6. drop      — (add mode) each loser drops its moved edges and
//                 subtracts the budget, so cluster-wide counts return
//                 to exactly the single-node totals. A drained member
//                 simply leaves the topology at cutover.
//
// Any failure before cutover rolls back: the handoff (if live) is
// deactivated and the gainers are scrubbed of the transferred state —
// a joining member is dropped down to empty using its own item count,
// a pre-existing gainer by the router's confirmed-forward ledger. After
// cutover the change only rolls forward. With Config.StateDir set the
// journal makes both directions survive a router restart.

// errMigrationActive answers a membership change attempted while one is
// already in flight.
var errMigrationActive = errors.New("cluster: a membership change is already in flight")

// maxLogFetch bounds one catch-up /log fetch (the server's own default
// page size).
const maxLogFetch = 8192

// catchUpFetch is the catch-up page size — a variable so tests can
// shrink it below a writer's sustainable rate and force the
// stalled-catch-up handover deterministically.
var catchUpFetch = maxLogFetch

// migRetryDelay paces rollback/drop retries against a member that is
// temporarily unreachable.
const migRetryDelay = 250 * time.Millisecond

// migration is one in-flight membership change.
type migration struct {
	mode   string // "add" | "drain"
	target string // normalized URL of the member joining or leaving

	old, new               *Ring
	oldMembers, newMembers []*member // aligned with old / new
	losers                 []*member // members whose key set shrinks
	gainers                []*member // members whose key set grows

	started       time.Time
	targetVersion int64 // ring version the change builds

	mu       sync.Mutex
	phase    string
	outcome  string // "" while running, then "done" | "failed"
	err      error
	cursors  map[string]uint64 // per-loser log cursor (catch-up progress)
	dropMap  map[string]int64  // per-loser drop budget, fixed at cutover
	dropped  map[string]bool   // per-loser drop completion (journal)
	scrubbed map[string]bool   // per-gainer rollback-scrub completion (journal)
	duration time.Duration     // fixed once finished

	// Drain-mode counter rebase: the export aggregates the departing
	// member's items into one weighted item per edge, so the gainers'
	// item counters under-count by (fenced items − exported edges).
	// That delta is computed at copy time, assigned a surviving gainer
	// at cutover, and delivered via /partition/absorb afterwards so the
	// cluster-total Stats().Items stays exactly the ingested item count.
	absorbItems  int64  // the delta owed
	absorbTarget string // the gainer rebasing it, fixed at cutover
	absorbed     bool   // delivered (journaled)

	lossFwd map[string]*atomic.Int64 // per loser: migrated items its gainers confirmed
	shadow  map[string]*atomic.Int64 // per loser: handoff double-writes its gainers confirmed
	gainFwd map[string]*atomic.Int64 // per gainer: items it confirmed (the rollback budget)

	movedEdges   atomic.Int64
	movedBytes   atomic.Int64
	handoffStall atomic.Int64 // ns the handoff fence held writes
	cutoverStall atomic.Int64 // ns the cutover fence held writes

	done chan struct{}
}

// MigrationStatus is the migration block of /cluster/stats (and the
// ?wait=1 response of the admin endpoints).
type MigrationStatus struct {
	Mode           string            `json:"mode"`
	Target         string            `json:"target"`
	Phase          string            `json:"phase"`
	Outcome        string            `json:"outcome,omitempty"` // "done" | "failed" once finished
	Error          string            `json:"error,omitempty"`
	RingVersion    int64             `json:"ring_version"` // the version the change builds
	OldMembers     []string          `json:"old_members"`
	NewMembers     []string          `json:"new_members"`
	MovedEdges     int64             `json:"moved_edges"`
	MovedBytes     int64             `json:"moved_bytes"`
	ForwardedItems int64             `json:"forwarded_items"`        // copy + catch-up + drain
	ShadowItems    int64             `json:"shadow_items"`           // handoff double-writes
	AbsorbItems    int64             `json:"absorb_items,omitempty"` // drain counter rebase
	CaughtUpSeq    map[string]uint64 `json:"caught_up_seq,omitempty"`
	HandoffStallMS float64           `json:"handoff_stall_ms"`
	CutoverStallMS float64           `json:"cutover_stall_ms"`
	DurationMS     float64           `json:"duration_ms"`
}

// moving reports whether key's owner changes between the two rings.
// Owners are compared by URL, which is ordering-robust even though the
// two member lists share most entries.
func (mg *migration) moving(key string) bool {
	return mg.old.Member(mg.old.Owner(key)) != mg.new.Member(mg.new.Owner(key))
}

// newOwner returns the member owning key under the new ring.
func (mg *migration) newOwner(key string) *member {
	return mg.newMembers[mg.new.Owner(key)]
}

// listsQuery renders the ?old=&new= query both partition endpoints and
// the server-side predicate share.
func (mg *migration) listsQuery() string {
	return "?old=" + url.QueryEscape(strings.Join(mg.old.Members(), ",")) +
		"&new=" + url.QueryEscape(strings.Join(mg.new.Members(), ","))
}

func (mg *migration) setPhase(p string) {
	mg.mu.Lock()
	mg.phase = p
	mg.mu.Unlock()
}

func (mg *migration) phaseName() string {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.phase
}

// fail records the first fatal error; the migrator checks it between
// steps (write handlers report shadow-write failures this way).
func (mg *migration) fail(err error) {
	mg.mu.Lock()
	if mg.err == nil {
		mg.err = err
	}
	mg.mu.Unlock()
}

func (mg *migration) failedErr() error {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.err
}

func (mg *migration) setCursor(m *member, seq uint64) {
	mg.mu.Lock()
	mg.cursors[m.primary] = seq
	mg.mu.Unlock()
}

func (mg *migration) cursor(m *member) uint64 {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.cursors[m.primary]
}

// noteShadow credits one confirmed handoff double-write batch: the
// loser's drop budget grows (the gainer now holds n items the loser
// also counted) and the gainer's rollback budget grows.
func (mg *migration) noteShadow(loser, gainer *member, n int64) {
	mg.shadow[loser.primary].Add(n)
	mg.gainFwd[gainer.primary].Add(n)
}

// roleOf names m's part in the change for /cluster/stats.
func (mg *migration) roleOf(m *member) string {
	for _, l := range mg.losers {
		if l == m {
			return "source"
		}
	}
	for _, g := range mg.gainers {
		if g == m {
			return "destination"
		}
	}
	return ""
}

func (mg *migration) finish(outcome string, cause error) {
	mg.mu.Lock()
	mg.outcome = outcome
	if mg.err == nil {
		mg.err = cause
	}
	mg.duration = time.Since(mg.started)
	mg.mu.Unlock()
}

func (mg *migration) status() MigrationStatus {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	st := MigrationStatus{
		Mode: mg.mode, Target: mg.target, Phase: mg.phase, Outcome: mg.outcome,
		RingVersion: mg.targetVersion,
		OldMembers:  mg.old.Members(), NewMembers: mg.new.Members(),
		MovedEdges: mg.movedEdges.Load(), MovedBytes: mg.movedBytes.Load(),
		AbsorbItems:    mg.absorbItems,
		HandoffStallMS: float64(mg.handoffStall.Load()) / 1e6,
		CutoverStallMS: float64(mg.cutoverStall.Load()) / 1e6,
	}
	if mg.err != nil {
		st.Error = mg.err.Error()
	}
	if mg.duration > 0 {
		st.DurationMS = float64(mg.duration) / 1e6
	} else {
		st.DurationMS = float64(time.Since(mg.started)) / 1e6
	}
	for _, c := range mg.lossFwd {
		st.ForwardedItems += c.Load()
	}
	for _, c := range mg.shadow {
		st.ShadowItems += c.Load()
	}
	if len(mg.cursors) > 0 {
		st.CaughtUpSeq = make(map[string]uint64, len(mg.cursors))
		for k, v := range mg.cursors {
			st.CaughtUpSeq[k] = v
		}
	}
	return st
}

// migrating reports whether a membership change is in flight (spill
// replay pauses while one is).
func (rt *Router) migrating() bool {
	rt.migMu.Lock()
	defer rt.migMu.Unlock()
	return rt.mig != nil
}

// --- admin endpoints ---

// handleMemberAdd (POST /cluster/members {"url": ...}) adds a member by
// live-migrating its partitions in. ?wait=1 blocks until the change
// finishes and answers with its final MigrationStatus; otherwise 202 is
// immediate and /cluster/stats tracks progress.
func (rt *Router) handleMemberAdd(w http.ResponseWriter, r *http.Request) {
	rt.handleMembership(w, r, "add")
}

// handleMemberDrain (POST /cluster/drain {"url": ...}) removes a member
// by live-migrating its partitions out. Same ?wait=1 contract as add.
func (rt *Router) handleMemberDrain(w http.ResponseWriter, r *http.Request) {
	rt.handleMembership(w, r, "drain")
}

func (rt *Router) handleMembership(w http.ResponseWriter, r *http.Request, mode string) {
	if !rt.cfg.AllowMembershipChanges {
		httpError(w, http.StatusForbidden,
			"membership changes are disabled (start the router with -allow-membership-changes)")
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	if req.URL == "" {
		httpError(w, http.StatusBadRequest, "url is required")
		return
	}
	mg, err := rt.beginMigration(mode, req.URL)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errMigrationActive) {
			code = http.StatusConflict
		}
		httpError(w, code, "%v", err)
		return
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.runMigration(mg)
	}()
	if r.URL.Query().Get("wait") != "1" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]interface{}{
			"status": "migrating", "mode": mode, "target": mg.target,
		})
		return
	}
	select {
	case <-mg.done:
	case <-rt.ctx.Done():
		httpError(w, http.StatusServiceUnavailable, "router closing")
		return
	case <-r.Context().Done():
		return
	}
	st := mg.status()
	w.Header().Set("Content-Type", "application/json")
	if st.Outcome != "done" {
		w.WriteHeader(http.StatusInternalServerError)
	}
	_ = json.NewEncoder(w).Encode(st)
}

// beginMigration validates the change, registers it as THE in-flight
// migration, and preflights the cluster: every involved member healthy,
// no spilled writes pending (a pending spill would replay into a moving
// partition mid-copy and break the accounting).
func (rt *Router) beginMigration(mode, rawURL string) (*migration, error) {
	target := NormalizeMember(rawURL)
	if target == "" {
		return nil, errors.New("url is required")
	}
	t := rt.topology()
	var newList []string
	switch mode {
	case "add":
		if t.ring.Index(target) >= 0 {
			return nil, fmt.Errorf("%s is already a member", target)
		}
		newList = append(t.ring.Members(), target)
	case "drain":
		if t.ring.Index(target) < 0 {
			return nil, fmt.Errorf("%s is not a member", target)
		}
		if t.ring.Size() == 1 {
			return nil, errors.New("cannot drain the last member")
		}
		for _, m := range t.ring.Members() {
			if m != target {
				newList = append(newList, m)
			}
		}
	default:
		return nil, fmt.Errorf("unknown migration mode %q", mode)
	}
	newRing, err := NewRing(newList)
	if err != nil {
		return nil, err
	}
	mg := &migration{
		mode: mode, target: target,
		old: t.ring, new: newRing,
		oldMembers:    t.members,
		started:       time.Now(),
		targetVersion: t.version + 1,
		phase:         "preflight",
		cursors:       make(map[string]uint64),
		dropped:       make(map[string]bool),
		scrubbed:      make(map[string]bool),
		done:          make(chan struct{}),
	}
	mg.newMembers = make([]*member, newRing.Size())
	for i := 0; i < newRing.Size(); i++ {
		mg.newMembers[i], err = rt.memberFor(newRing.Member(i))
		if err != nil {
			return nil, err
		}
	}
	switch mode {
	case "add":
		mg.losers = mg.oldMembers
		mg.gainers = []*member{rt.lookupMember(target)}
	case "drain":
		mg.losers = []*member{rt.lookupMember(target)}
		mg.gainers = mg.newMembers
	}
	mg.lossFwd = make(map[string]*atomic.Int64, len(mg.losers))
	mg.shadow = make(map[string]*atomic.Int64, len(mg.losers))
	for _, l := range mg.losers {
		mg.lossFwd[l.primary] = new(atomic.Int64)
		mg.shadow[l.primary] = new(atomic.Int64)
	}
	mg.gainFwd = make(map[string]*atomic.Int64, len(mg.gainers))
	for _, g := range mg.gainers {
		mg.gainFwd[g.primary] = new(atomic.Int64)
	}

	// Register before preflighting, so no spill replay can start between
	// the checks and the copy phase.
	rt.migMu.Lock()
	if rt.mig != nil {
		rt.migMu.Unlock()
		return nil, errMigrationActive
	}
	rt.mig = mg
	rt.migMu.Unlock()
	abandon := func(err error) (*migration, error) {
		rt.migMu.Lock()
		rt.mig = nil
		rt.migMu.Unlock()
		return nil, err
	}

	if mode == "add" {
		// A joining member has never been probed: one synchronous health
		// check fails a bogus URL fast.
		ctx, cancel := context.WithTimeout(rt.ctx, rt.cfg.ProbeTimeout)
		hz, err := rt.fetchHealthz(ctx, target)
		cancel()
		if err != nil {
			return abandon(fmt.Errorf("new member %s is not healthy: %v", target, err))
		}
		if hz.Role == "follower" {
			return abandon(fmt.Errorf("new member %s is a follower (it rejects writes)", target))
		}
		mg.gainers[0].down.Store(false)
	}
	for _, m := range mg.oldMembers {
		if m.down.Load() {
			return abandon(fmt.Errorf("member %s is down; heal the cluster before changing membership", m.primary))
		}
		if m.spill != nil && (m.spill.pendingItems() > 0 || m.spill.replaying.Load()) {
			return abandon(fmt.Errorf("member %s has spilled writes pending replay; wait for the drain", m.primary))
		}
	}
	return mg, nil
}

// runMigration drives the phases. Every pre-cutover failure lands in
// rollbackMigration; after the journal commits at cutover the change
// only rolls forward.
func (rt *Router) runMigration(mg *migration) {
	mg.setPhase("copy")
	if err := rt.saveJournal(mg); err != nil {
		rt.rollbackMigration(mg, err)
		return
	}
	for _, loser := range mg.losers {
		cursor, fencedItems, err := rt.copyPartition(mg, loser)
		if err != nil {
			rt.rollbackMigration(mg, err)
			return
		}
		mg.setCursor(loser, cursor)
		if mg.mode == "drain" {
			// All of a draining member's keys move, so its fenced item
			// count IS the moving item count; what the copy forwarded is
			// the (aggregated) edge count. The difference is owed to a
			// gainer after cutover (catch-up, drain and shadow items are
			// forwarded one-for-one and need no rebase).
			if delta := fencedItems - mg.lossFwd[loser.primary].Load(); delta > 0 {
				mg.mu.Lock()
				mg.absorbItems += delta
				mg.mu.Unlock()
			}
		}
	}
	mg.setPhase("catchup")
	_ = rt.saveJournal(mg)
	for _, loser := range mg.losers {
		if err := rt.catchUp(mg, loser); err != nil {
			rt.rollbackMigration(mg, err)
			return
		}
	}
	mg.setPhase("handoff")
	_ = rt.saveJournal(mg)
	fence, err := rt.activateHandoff(mg)
	if err != nil {
		rt.rollbackMigration(mg, err)
		return
	}
	for _, loser := range mg.losers {
		if err := rt.drainTo(mg, loser, fence[loser.primary]); err != nil {
			rt.rollbackMigration(mg, err)
			return
		}
	}
	if err := rt.cutover(mg); err != nil {
		rt.rollbackMigration(mg, err)
		return
	}
	if mg.mode == "add" {
		rt.dropAtLosers(mg)
	} else {
		rt.absorbAtGainer(mg)
	}
	if rt.ctx.Err() != nil {
		return // Close mid-drop/absorb: the journal resumes it on restart
	}
	rt.finalizeMigration(mg)
}

// countingReader counts transfer bytes for the migration stats.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// copyPartition streams loser's moving edges to their new owners. It
// returns the log cursor fencing the export body and the loser's whole
// item count at that fence (X-Partition-Items — the drain-mode rebase
// input; see migration.absorbItems).
func (rt *Router) copyPartition(mg *migration, loser *member) (uint64, int64, error) {
	resp, err := rt.get(rt.ctx, loser.primary+"/partition/export"+mg.listsQuery())
	if err != nil {
		return 0, 0, fmt.Errorf("exporting partition from %s: %w", loser.primary, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		slurp, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, fmt.Errorf("partition export from %s: status %d: %s",
			loser.primary, resp.StatusCode, bytes.TrimSpace(slurp))
	}
	seqRaw := resp.Header.Get("X-Log-Seq")
	if seqRaw == "" {
		return 0, 0, fmt.Errorf("member %s keeps no operation log; live migration needs one to fence the copy (start members with -log-dir)", loser.primary)
	}
	cursor, err := strconv.ParseUint(seqRaw, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("partition export from %s: bad X-Log-Seq: %v", loser.primary, err)
	}
	fencedItems, _ := strconv.ParseInt(resp.Header.Get("X-Partition-Items"), 10, 64)
	cr := &countingReader{r: resp.Body}
	sr := stream.NewReader(cr)
	batches := make(map[*member][]stream.HashedItem)
	flush := func(g *member) error {
		if len(batches[g]) == 0 {
			return nil
		}
		if err := rt.forwardMigrated(mg, loser, g, batches[g]); err != nil {
			return err
		}
		batches[g] = batches[g][:0]
		return nil
	}
	for {
		it, ok := sr.Next()
		if !ok {
			break
		}
		g := mg.newOwner(it.Src)
		batches[g] = append(batches[g], stream.HashItem(it))
		mg.movedEdges.Add(1)
		if len(batches[g]) >= rt.cfg.BatchSize {
			if err := flush(g); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := sr.Err(); err != nil {
		return 0, 0, fmt.Errorf("partition export stream from %s: %w", loser.primary, err)
	}
	for g := range batches {
		if err := flush(g); err != nil {
			return 0, 0, err
		}
	}
	mg.movedBytes.Add(cr.n)
	return cursor, fencedItems, nil
}

// forwardMigrated delivers one migrated batch to a gainer and books the
// confirmation on both ledgers. Anything but full confirmation is fatal
// to the migration — the accounting would drift otherwise.
func (rt *Router) forwardMigrated(mg *migration, loser, gainer *member, batch []stream.HashedItem) error {
	n, err := rt.post(rt.ctx, gainer, batch)
	if n > 0 {
		mg.lossFwd[loser.primary].Add(n)
		mg.gainFwd[gainer.primary].Add(n)
	}
	if err != nil {
		return fmt.Errorf("forwarding migrated items to %s: %w", gainer.primary, err)
	}
	if n != int64(len(batch)) {
		return fmt.Errorf("member %s confirmed %d of %d migrated items", gainer.primary, n, len(batch))
	}
	return nil
}

// catchUp tails loser's log from the copy fence until the lag is at
// most one batch; the fenced drain after handoff closes the rest.
//
// Under saturated ingest the log can grow as fast as the relay drains
// it, so "lag ≤ one batch" may never arrive. Chasing further buys
// nothing then: catch-up only exists to shrink the window the fenced
// drain must relay, and once the lag stops shrinking the window is as
// small as it will get — the handoff fence bounds it and double-writes
// cover everything after the fence, so handing over early is safe,
// just a longer drain.
func (rt *Router) catchUp(mg *migration, loser *member) error {
	const maxRounds = 10000
	const maxStalledRounds = 3
	lastLag, stalled := ^uint64(0), 0
	for round := 0; ; round++ {
		if err := mg.failedErr(); err != nil {
			return err
		}
		if rt.ctx.Err() != nil {
			return rt.ctx.Err()
		}
		cursor := mg.cursor(loser)
		next, end, err := rt.relayLog(mg, loser, cursor, catchUpFetch)
		if err != nil {
			return err
		}
		mg.setCursor(loser, next)
		lag := end - next
		if lag <= uint64(rt.cfg.BatchSize) {
			return nil
		}
		if lag >= lastLag {
			if stalled++; stalled >= maxStalledRounds {
				return nil // writers outpace the relay; the drain closes it
			}
		} else {
			stalled = 0
		}
		lastLag = lag
		if round >= maxRounds {
			return fmt.Errorf("catch-up on %s cannot converge (lag %d after %d rounds)",
				loser.primary, end-next, round)
		}
	}
}

// relayLog reads one /log page from loser at from, forwards the moving
// items to their new-ring owners, and returns the next cursor plus the
// log end at read time.
func (rt *Router) relayLog(mg *migration, loser *member, from uint64, max int) (uint64, uint64, error) {
	if max <= 0 || max > maxLogFetch {
		max = maxLogFetch
	}
	u := loser.primary + "/log?from=" + strconv.FormatUint(from, 10) + "&max=" + strconv.Itoa(max)
	resp, err := rt.get(rt.ctx, u)
	if err != nil {
		return from, 0, fmt.Errorf("tailing log of %s: %w", loser.primary, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		slurp, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return from, 0, fmt.Errorf("log of %s at %d: status %d: %s",
			loser.primary, from, resp.StatusCode, bytes.TrimSpace(slurp))
	}
	next, err := strconv.ParseUint(resp.Header.Get("X-Log-Next"), 10, 64)
	if err != nil {
		return from, 0, fmt.Errorf("log of %s: bad X-Log-Next: %v", loser.primary, err)
	}
	end, err := strconv.ParseUint(resp.Header.Get("X-Log-End"), 10, 64)
	if err != nil {
		return from, 0, fmt.Errorf("log of %s: bad X-Log-End: %v", loser.primary, err)
	}
	batches := make(map[*member][]stream.HashedItem)
	sr := stream.NewReader(resp.Body)
	for {
		it, ok := sr.Next()
		if !ok {
			break
		}
		if !mg.moving(it.Src) {
			continue
		}
		g := mg.newOwner(it.Src)
		batches[g] = append(batches[g], stream.HashItem(it))
		if len(batches[g]) >= rt.cfg.BatchSize {
			if err := rt.forwardMigrated(mg, loser, g, batches[g]); err != nil {
				return from, 0, err
			}
			batches[g] = batches[g][:0]
		}
	}
	if err := sr.Err(); err != nil {
		return from, 0, fmt.Errorf("log stream of %s: %w", loser.primary, err)
	}
	for g, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if err := rt.forwardMigrated(mg, loser, g, batch); err != nil {
			return from, 0, err
		}
	}
	return next, end, nil
}

// logEnd reads loser's current log end without relaying anything.
func (rt *Router) logEnd(loser *member, from uint64) (uint64, error) {
	ctx, cancel := context.WithTimeout(rt.ctx, 10*time.Second)
	defer cancel()
	u := loser.primary + "/log?from=" + strconv.FormatUint(from, 10) + "&max=1"
	resp, err := rt.get(ctx, u)
	if err != nil {
		return 0, fmt.Errorf("reading log end of %s: %w", loser.primary, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("log end of %s: status %d", loser.primary, resp.StatusCode)
	}
	end, err := strconv.ParseUint(resp.Header.Get("X-Log-End"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("log end of %s: bad X-Log-End: %v", loser.primary, err)
	}
	return end, nil
}

// activateHandoff installs the two-ring topology under the write fence
// and captures each loser's log end with no write in flight — the exact
// boundary between items the drain must relay and items the handoff
// double-writes.
func (rt *Router) activateHandoff(mg *migration) (map[string]uint64, error) {
	start := time.Now()
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	cur := rt.topology()
	rt.topo.Store(&topology{
		version: cur.version, ring: cur.ring, members: cur.members,
		next: mg.new, nextMembers: mg.newMembers, mig: mg,
		all: unionMembers(cur.members, mg.newMembers),
	})
	fence := make(map[string]uint64, len(mg.losers))
	for _, loser := range mg.losers {
		end, err := rt.logEnd(loser, mg.cursor(loser))
		if err != nil {
			rt.topo.Store(cur) // undo before releasing the fence
			return nil, err
		}
		fence[loser.primary] = end
	}
	mg.handoffStall.Store(int64(time.Since(start)))
	return fence, nil
}

// drainTo relays loser's log window (cursor, end] exactly — never past
// end, where the double-written items begin.
func (rt *Router) drainTo(mg *migration, loser *member, end uint64) error {
	for {
		cursor := mg.cursor(loser)
		if cursor >= end {
			return nil
		}
		if err := mg.failedErr(); err != nil {
			return err
		}
		if rt.ctx.Err() != nil {
			return rt.ctx.Err()
		}
		max := end - cursor
		if max > maxLogFetch {
			max = maxLogFetch
		}
		next, _, err := rt.relayLog(mg, loser, cursor, int(max))
		if err != nil {
			return err
		}
		if next == cursor {
			return fmt.Errorf("log drain on %s stalled at %d (end %d)", loser.primary, cursor, end)
		}
		mg.setCursor(loser, next)
	}
}

// cutover commits the change under the write fence: the double-write
// ledger is final (every in-flight write completed its shadow
// confirmation before releasing its read lock), the journal records the
// per-loser drop budgets, and the new single-ring topology goes live in
// one pointer swap.
func (rt *Router) cutover(mg *migration) error {
	start := time.Now()
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	if err := mg.failedErr(); err != nil {
		return err
	}
	mg.mu.Lock()
	mg.phase = "cutover"
	mg.dropMap = make(map[string]int64, len(mg.losers))
	for _, l := range mg.losers {
		mg.dropMap[l.primary] = mg.lossFwd[l.primary].Load() + mg.shadow[l.primary].Load()
	}
	if mg.mode == "drain" && mg.absorbItems > 0 {
		// Rebase target: the gainer that confirmed the most transferred
		// items — guaranteed non-empty, so the counter has live state to
		// attach to (the windowed backend refuses an absorb into nothing).
		var bestN int64 = -1
		for _, g := range mg.gainers {
			if n := mg.gainFwd[g.primary].Load(); n > bestN {
				mg.absorbTarget, bestN = g.primary, n
			}
		}
	}
	mg.mu.Unlock()
	if err := rt.saveJournal(mg); err != nil {
		return fmt.Errorf("journaling cutover: %w", err)
	}
	rt.topo.Store(&topology{
		version: mg.targetVersion, ring: mg.new,
		members: mg.newMembers, all: mg.newMembers,
	})
	mg.cutoverStall.Store(int64(time.Since(start)))
	return nil
}

// dropAtLosers (add mode, after cutover) removes each loser's moved
// edges and subtracts its drop budget, retrying a temporarily
// unreachable member until the router closes — the change is committed,
// so this only rolls forward.
func (rt *Router) dropAtLosers(mg *migration) {
	mg.setPhase("drop")
	_ = rt.saveJournal(mg)
	q := mg.listsQuery()
	for _, loser := range mg.losers {
		mg.mu.Lock()
		items, done := mg.dropMap[loser.primary], mg.dropped[loser.primary]
		mg.mu.Unlock()
		if done {
			continue
		}
		for {
			err := rt.postDrop(loser.primary, q, items)
			if err == nil {
				mg.mu.Lock()
				mg.dropped[loser.primary] = true
				mg.mu.Unlock()
				_ = rt.saveJournal(mg)
				break
			}
			rt.cfg.Logf("cluster: migration: dropping moved partition on %s: %v (will retry)",
				loser.primary, err)
			select {
			case <-rt.ctx.Done():
				return
			case <-time.After(migRetryDelay):
			}
		}
	}
}

// postDrop issues one /partition/drop and demands a 200.
func (rt *Router) postDrop(base, listsQuery string, items int64) error {
	u := base + "/partition/drop" + listsQuery + "&items=" + strconv.FormatInt(items, 10)
	req, err := http.NewRequestWithContext(rt.ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		slurp, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(slurp))
	}
	return nil
}

// absorbAtGainer (drain mode, after cutover) delivers the counter
// rebase: the aggregation delta the copy under-counted is added to the
// chosen gainer's item counter, retrying until it lands or the router
// closes — like the add-mode drops, a committed change only rolls
// forward.
func (rt *Router) absorbAtGainer(mg *migration) {
	mg.mu.Lock()
	items, target, done := mg.absorbItems, mg.absorbTarget, mg.absorbed
	mg.mu.Unlock()
	if done || items <= 0 || target == "" {
		return
	}
	mg.setPhase("absorb")
	_ = rt.saveJournal(mg)
	for {
		err := rt.postAbsorb(target, items)
		if err == nil {
			mg.mu.Lock()
			mg.absorbed = true
			mg.mu.Unlock()
			_ = rt.saveJournal(mg)
			return
		}
		rt.cfg.Logf("cluster: migration: rebasing %d items onto %s: %v (will retry)",
			items, target, err)
		select {
		case <-rt.ctx.Done():
			return
		case <-time.After(migRetryDelay):
		}
	}
}

// postAbsorb issues one /partition/absorb and demands a 200.
func (rt *Router) postAbsorb(base string, items int64) error {
	u := base + "/partition/absorb?items=" + strconv.FormatInt(items, 10)
	req, err := http.NewRequestWithContext(rt.ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		slurp, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(slurp))
	}
	return nil
}

// memberItems reads a member's current stream-item count.
func (rt *Router) memberItems(m *member) (int64, error) {
	var st struct {
		Items int64 `json:"items"`
	}
	resp, err := rt.get(rt.ctx, m.primary+"/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stats of %s: status %d", m.primary, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Items, nil
}

// rollbackMigration undoes a pre-cutover failure: the handoff topology
// (if live) is replaced by the plain old ring, and the gainers are
// scrubbed of the transferred state. The old owners were never modified
// — the export does not remove anything — so scrubbing the gainers is
// the whole rollback.
func (rt *Router) rollbackMigration(mg *migration, cause error) {
	rt.cfg.Logf("cluster: migration %s %s failed in phase %s: %v; rolling back",
		mg.mode, mg.target, mg.phaseName(), cause)
	mg.setPhase("rollback")
	rt.topoMu.Lock()
	cur := rt.topology()
	if cur.next != nil {
		rt.topo.Store(&topology{
			version: cur.version, ring: cur.ring,
			members: cur.members, all: cur.members,
		})
	}
	rt.topoMu.Unlock()
	rt.scrubGainers(mg)
	if rt.ctx.Err() != nil {
		// Router closing mid-rollback: the scrub may not have finished,
		// so the journal (if any) stays for the next start to resume the
		// rollback — per-gainer scrub completion is journaled, so no
		// gainer is scrubbed twice and none is left unscrubbed. Status
		// bookkeeping still completes for any waiters.
		mg.finish("failed", cause)
		rt.migMu.Lock()
		st := mg.status()
		rt.lastMig = &st
		rt.mig = nil
		rt.migMu.Unlock()
		close(mg.done)
		return
	}
	rt.clearJournal()
	mg.finish("failed", cause)
	rt.migMu.Lock()
	st := mg.status()
	rt.lastMig = &st
	rt.mig = nil
	rt.migMu.Unlock()
	close(mg.done)
}

// scrubGainers drops the transferred partitions from every gainer. A
// joining member owned nothing before the migration, so its own item
// count is the exact scrub budget — even for forwards whose
// confirmation was lost. A pre-existing gainer (drain mode) is scrubbed
// by the router's confirmed-forward ledger. Unreachable gainers are
// retried until the router closes; the phase stays "rollback" so
// /cluster/stats shows what is being waited on.
func (rt *Router) scrubGainers(mg *migration) {
	q := mg.listsQuery()
	for _, g := range mg.gainers {
		mg.mu.Lock()
		done := mg.scrubbed[g.primary]
		mg.mu.Unlock()
		if done {
			continue
		}
		for {
			if rt.ctx.Err() != nil {
				return
			}
			var items int64
			var err error
			if mg.mode == "add" {
				items, err = rt.memberItems(g)
			} else {
				items = mg.gainFwd[g.primary].Load()
			}
			if err == nil && items == 0 {
				break // nothing transferred, nothing to scrub
			}
			if err == nil {
				err = rt.postDrop(g.primary, q, items)
			}
			if err == nil {
				break
			}
			rt.cfg.Logf("cluster: migration rollback: scrubbing %s: %v (will retry)", g.primary, err)
			select {
			case <-rt.ctx.Done():
				return
			case <-time.After(migRetryDelay):
			}
		}
		mg.mu.Lock()
		mg.scrubbed[g.primary] = true
		mg.mu.Unlock()
		_ = rt.saveJournal(mg)
	}
}

// finalizeMigration persists the new member list, clears the journal
// and publishes the completed status.
func (rt *Router) finalizeMigration(mg *migration) {
	if err := rt.saveMembers(mg.new.Members(), mg.targetVersion); err != nil {
		rt.cfg.Logf("cluster: migration: persisting member list: %v", err)
	}
	rt.clearJournal()
	mg.finish("done", nil)
	rt.migMu.Lock()
	st := mg.status()
	rt.lastMig = &st
	rt.mig = nil
	rt.migMu.Unlock()
	close(mg.done)
	rt.cfg.Logf("cluster: migration %s %s done: ring v%d, %d edges / %d items moved, %d double-written",
		mg.mode, mg.target, mg.targetVersion, st.MovedEdges, st.ForwardedItems, st.ShadowItems)
}

// --- state persistence and restart recovery ---

const (
	membersFile = "members.json"
	journalFile = "migration.json"
)

// savedMembers is the members.json shape: the committed member list,
// which overrides Config.Members on restart.
type savedMembers struct {
	Members     []string `json:"members"`
	RingVersion int64    `json:"ring_version"`
}

// journalState is the migration.json shape: enough to roll an
// interrupted change back (pre-cutover) or forward (post-cutover).
type journalState struct {
	Phase      string           `json:"phase"`
	Mode       string           `json:"mode"`
	Target     string           `json:"target"`
	OldMembers []string         `json:"old_members"`
	NewMembers []string         `json:"new_members"`
	OldVersion int64            `json:"old_version"`
	NewVersion int64            `json:"new_version"`
	GainFwd    map[string]int64 `json:"gain_fwd,omitempty"`
	DropItems  map[string]int64 `json:"drop_items,omitempty"`
	Dropped    map[string]bool  `json:"dropped,omitempty"`
	Scrubbed   map[string]bool  `json:"scrubbed,omitempty"`

	AbsorbItems  int64  `json:"absorb_items,omitempty"`  // drain counter rebase owed
	AbsorbTarget string `json:"absorb_target,omitempty"` // gainer receiving it
	Absorbed     bool   `json:"absorbed,omitempty"`      // delivered
}

// committed reports whether the journaled change passed its cutover —
// the point after which recovery rolls forward instead of back.
func (j *journalState) committed() bool {
	return j.Phase == "cutover" || j.Phase == "drop" || j.Phase == "absorb"
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadMembers resolves the member list the router must serve at start:
// a committed journal's new list beats members.json, an uncommitted
// journal pins the old list, members.json beats Config.Members, and
// with no state at all the answer is nil (use Config.Members).
func (rt *Router) loadMembers() (*savedMembers, error) {
	if rt.cfg.StateDir == "" {
		return nil, nil
	}
	j, err := rt.loadJournal()
	if err != nil {
		return nil, err
	}
	if j != nil {
		if j.committed() {
			return &savedMembers{Members: j.NewMembers, RingVersion: j.NewVersion}, nil
		}
		return &savedMembers{Members: j.OldMembers, RingVersion: j.OldVersion}, nil
	}
	data, err := os.ReadFile(filepath.Join(rt.cfg.StateDir, membersFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s: %w", membersFile, err)
	}
	var sm savedMembers
	if err := json.Unmarshal(data, &sm); err != nil {
		return nil, fmt.Errorf("cluster: parsing %s: %w", membersFile, err)
	}
	if len(sm.Members) == 0 {
		return nil, fmt.Errorf("cluster: %s holds no members", membersFile)
	}
	return &sm, nil
}

func (rt *Router) saveMembers(members []string, version int64) error {
	if rt.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(rt.cfg.StateDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(savedMembers{Members: members, RingVersion: version})
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(rt.cfg.StateDir, membersFile), data)
}

func (rt *Router) saveJournal(mg *migration) error {
	if rt.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(rt.cfg.StateDir, 0o755); err != nil {
		return err
	}
	mg.mu.Lock()
	j := journalState{
		Phase: mg.phase, Mode: mg.mode, Target: mg.target,
		OldMembers: mg.old.Members(), NewMembers: mg.new.Members(),
		OldVersion: mg.targetVersion - 1, NewVersion: mg.targetVersion,
		GainFwd: make(map[string]int64, len(mg.gainFwd)),
	}
	for u, c := range mg.gainFwd {
		j.GainFwd[u] = c.Load()
	}
	if mg.dropMap != nil {
		j.DropItems = make(map[string]int64, len(mg.dropMap))
		for u, n := range mg.dropMap {
			j.DropItems[u] = n
		}
	}
	if len(mg.dropped) > 0 {
		j.Dropped = make(map[string]bool, len(mg.dropped))
		for u, d := range mg.dropped {
			j.Dropped[u] = d
		}
	}
	if len(mg.scrubbed) > 0 {
		j.Scrubbed = make(map[string]bool, len(mg.scrubbed))
		for u, d := range mg.scrubbed {
			j.Scrubbed[u] = d
		}
	}
	j.AbsorbItems, j.AbsorbTarget, j.Absorbed = mg.absorbItems, mg.absorbTarget, mg.absorbed
	mg.mu.Unlock()
	data, err := json.Marshal(j)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(rt.cfg.StateDir, journalFile), data)
}

func (rt *Router) loadJournal() (*journalState, error) {
	if rt.cfg.StateDir == "" {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(rt.cfg.StateDir, journalFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s: %w", journalFile, err)
	}
	var j journalState
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("cluster: parsing %s: %w", journalFile, err)
	}
	return &j, nil
}

func (rt *Router) clearJournal() {
	if rt.cfg.StateDir == "" {
		return
	}
	if err := os.Remove(filepath.Join(rt.cfg.StateDir, journalFile)); err != nil && !os.IsNotExist(err) {
		rt.cfg.Logf("cluster: removing migration journal: %v", err)
	}
}

// recoverMigration (called from New) resumes an interrupted membership
// change from its journal: committed changes finish their drops, the
// rest roll back. The work runs in the background — members may still
// be starting — and /cluster/stats shows it as a normal migration.
func (rt *Router) recoverMigration() error {
	j, err := rt.loadJournal()
	if err != nil {
		return err
	}
	if j == nil {
		return nil
	}
	mg, err := rt.migrationFromJournal(j)
	if err != nil {
		return err
	}
	rt.migMu.Lock()
	rt.mig = mg
	rt.migMu.Unlock()
	rt.cfg.Logf("cluster: recovering interrupted migration (%s %s, phase %s)",
		j.Mode, j.Target, j.Phase)
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		if j.committed() {
			// The serving topology was already built from the journal's
			// new member list; only the drops (add) or the counter
			// rebase (drain) remain.
			if mg.mode == "add" {
				rt.dropAtLosers(mg)
			} else {
				rt.absorbAtGainer(mg)
			}
			if rt.ctx.Err() != nil {
				return
			}
			rt.finalizeMigration(mg)
			return
		}
		rt.rollbackMigration(mg, errors.New("router restarted mid-migration"))
	}()
	return nil
}

// migrationFromJournal rebuilds the migration bookkeeping a restarted
// router needs to finish (or undo) a journaled change. The drain-mode
// rollback budget is the journaled ledger, which trails reality by at
// most the items forwarded after the last journal write; add-mode
// rollback re-reads the gainer's live item count and is exact.
func (rt *Router) migrationFromJournal(j *journalState) (*migration, error) {
	oldRing, err := NewRing(j.OldMembers)
	if err != nil {
		return nil, fmt.Errorf("cluster: journal old members: %w", err)
	}
	newRing, err := NewRing(j.NewMembers)
	if err != nil {
		return nil, fmt.Errorf("cluster: journal new members: %w", err)
	}
	mg := &migration{
		mode: j.Mode, target: j.Target,
		old: oldRing, new: newRing,
		started:       time.Now(),
		targetVersion: j.NewVersion,
		phase:         j.Phase,
		cursors:       make(map[string]uint64),
		dropped:       make(map[string]bool),
		scrubbed:      make(map[string]bool),
		done:          make(chan struct{}),
	}
	mg.oldMembers = make([]*member, oldRing.Size())
	for i := 0; i < oldRing.Size(); i++ {
		if mg.oldMembers[i], err = rt.memberFor(oldRing.Member(i)); err != nil {
			return nil, err
		}
	}
	mg.newMembers = make([]*member, newRing.Size())
	for i := 0; i < newRing.Size(); i++ {
		if mg.newMembers[i], err = rt.memberFor(newRing.Member(i)); err != nil {
			return nil, err
		}
	}
	switch j.Mode {
	case "add":
		mg.losers = mg.oldMembers
		mg.gainers = []*member{rt.lookupMember(j.Target)}
	case "drain":
		mg.losers = []*member{rt.lookupMember(j.Target)}
		mg.gainers = mg.newMembers
	default:
		return nil, fmt.Errorf("cluster: journal mode %q unknown", j.Mode)
	}
	if mg.losers[0] == nil || mg.gainers[0] == nil {
		return nil, fmt.Errorf("cluster: journal target %q is not in either member list", j.Target)
	}
	mg.lossFwd = make(map[string]*atomic.Int64, len(mg.losers))
	mg.shadow = make(map[string]*atomic.Int64, len(mg.losers))
	for _, l := range mg.losers {
		mg.lossFwd[l.primary] = new(atomic.Int64)
		mg.shadow[l.primary] = new(atomic.Int64)
	}
	mg.gainFwd = make(map[string]*atomic.Int64, len(mg.gainers))
	for _, g := range mg.gainers {
		c := new(atomic.Int64)
		c.Store(j.GainFwd[g.primary])
		mg.gainFwd[g.primary] = c
	}
	if j.DropItems != nil {
		mg.dropMap = make(map[string]int64, len(j.DropItems))
		for u, n := range j.DropItems {
			mg.dropMap[u] = n
		}
	}
	for u, d := range j.Dropped {
		mg.dropped[u] = d
	}
	for u, d := range j.Scrubbed {
		mg.scrubbed[u] = d
	}
	mg.absorbItems, mg.absorbTarget, mg.absorbed = j.AbsorbItems, j.AbsorbTarget, j.Absorbed
	return mg, nil
}
