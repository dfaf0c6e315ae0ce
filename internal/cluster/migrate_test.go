package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultproxy"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Membership-change battery: the live-migration protocol under its
// equivalence oracle. Every test ends in diffObservables — whatever a
// migration (or its failure, or the router dying mid-way) did to the
// cluster, the query observables must still match a single unpartitioned
// server that saw the same stream.

// migrationMember starts a member fit to lose partitions: live migration
// fences the copy against the operation log, so losers need one.
func migrationMember(t *testing.T, backend string) *testMember {
	t.Helper()
	m := startMember(t, server.Options{Backend: backend,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	t.Cleanup(m.stop)
	return m
}

// migrationCluster builds n log-backed members and a router with the
// membership-change endpoints enabled.
func migrationCluster(t *testing.T, n int, backend string, cfg Config) ([]*testMember, []string, *Router, string) {
	t.Helper()
	members := make([]*testMember, n)
	urls := make([]string, n)
	for i := range members {
		members[i] = migrationMember(t, backend)
		urls[i] = members[i].ts.URL
	}
	cfg.Members = urls
	cfg.AllowMembershipChanges = true
	rt, ts := newTestRouter(t, cfg)
	return members, urls, rt, ts.URL
}

// faultMember is a real server behind a faultproxy front: it can be
// crash-killed (requests abort at the transport level; the state and the
// proxy's port survive, unlike testMember.die), slowed down per path to
// widen migration phases into testable windows, and made to reject a
// path with a status code without the backend ever seeing the request.
// The router is pointed at fm.url — the proxy — never at the backend.
type faultMember struct {
	srv     *server.Server
	backend *httptest.Server
	proxy   *faultproxy.Proxy
	url     string // the proxy front: the member URL the cluster sees

	mu     sync.Mutex
	delay  map[string]time.Duration
	reject map[string]int

	stopOnce sync.Once
}

func startFaultMember(t *testing.T, opt server.Options) *faultMember {
	t.Helper()
	opt.Logf = silentLogf
	srv, err := server.NewWithOptions(testCfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	proxy, err := faultproxy.New(backend.URL, faultproxy.Options{Logf: silentLogf})
	if err != nil {
		backend.Close()
		srv.Close()
		t.Fatal(err)
	}
	fm := &faultMember{srv: srv, backend: backend, proxy: proxy, url: proxy.URL(),
		delay: make(map[string]time.Duration), reject: make(map[string]int)}
	t.Cleanup(fm.stop)
	return fm
}

func (fm *faultMember) stop() {
	fm.stopOnce.Do(func() {
		fm.proxy.Close()
		fm.backend.CloseClientConnections()
		fm.backend.Close()
		fm.srv.Close()
	})
}

// kill simulates a crash: every connection dies and new requests abort
// without a response, but the address stays bound (no impostor can take
// it) and the in-memory state survives for revive.
func (fm *faultMember) kill() { fm.proxy.Kill() }

func (fm *faultMember) revive() { fm.proxy.Revive() }

// waitIdle blocks until no request is inside the member's front —
// needed when a delayed request from a dead router could otherwise
// land after a successor's recovery already reset the member.
func (fm *faultMember) waitIdle(t *testing.T) {
	t.Helper()
	if !fm.proxy.WaitIdle(15 * time.Second) {
		t.Fatalf("fault member never went idle (%d requests in flight)", fm.proxy.Inflight())
	}
}

func (fm *faultMember) setDelay(path string, d time.Duration) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if d == 0 {
		delete(fm.delay, path)
	} else {
		fm.delay[path] = d
	}
	fm.applyLocked()
}

func (fm *faultMember) setReject(path string, code int) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if code == 0 {
		delete(fm.reject, path)
	} else {
		fm.reject[path] = code
	}
	fm.applyLocked()
}

// applyLocked rebuilds the proxy's fault set from the delay/reject
// maps. Caller holds fm.mu.
func (fm *faultMember) applyLocked() {
	var faults []faultproxy.Fault
	for path, d := range fm.delay {
		faults = append(faults, faultproxy.Fault{Path: path, Prob: 1, Latency: d})
	}
	for path, code := range fm.reject {
		faults = append(faults, faultproxy.Fault{Path: path, Prob: 1, Status: code})
	}
	fm.proxy.Set(faults...)
}

// ingestChunks streams items through the router in small /ingest
// requests. It returns errors instead of failing the test, so concurrent
// writer goroutines can use it (t.Fatalf is main-goroutine-only).
func ingestChunks(base string, items []stream.Item, chunk int) error {
	for s := 0; s < len(items); s += chunk {
		e := min(s+chunk, len(items))
		var buf bytes.Buffer
		if err := stream.EncodeNDJSON(&buf, items[s:e]); err != nil {
			return err
		}
		resp, err := http.Post(base+"/ingest", "application/x-ndjson", &buf)
		if err != nil {
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ingest chunk: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
		var res struct {
			Ingested int64 `json:"ingested"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("ingest chunk: %v (%s)", err, raw)
		}
		if res.Ingested != int64(e-s) {
			return fmt.Errorf("ingest chunk: %d of %d confirmed", res.Ingested, e-s)
		}
	}
	return nil
}

func ingestAll(t *testing.T, base string, items []stream.Item) {
	t.Helper()
	if err := ingestChunks(base, items, 1<<30); err != nil {
		t.Fatal(err)
	}
}

// waitCluster polls the router's stats until cond accepts them.
func waitCluster(t *testing.T, rt *Router, what string, cond func(ClusterStats) bool) ClusterStats {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := rt.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			raw, _ := json.Marshal(st)
			t.Fatalf("timeout waiting for %s: %s", what, raw)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// changeMembership runs one blocking membership change and demands it
// succeeds.
func changeMembership(t *testing.T, routerURL, endpoint, memberURL string) MigrationStatus {
	t.Helper()
	var st MigrationStatus
	resp, raw := postBody(t, routerURL+endpoint+"?wait=1",
		fmt.Sprintf(`{"url":%q}`, memberURL), &st)
	if resp.StatusCode != http.StatusOK || st.Outcome != "done" {
		t.Fatalf("%s %s: status %d, outcome %q: %s",
			endpoint, memberURL, resp.StatusCode, st.Outcome, raw)
	}
	return st
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	return reflect.DeepEqual(as, bs)
}

// TestMembershipEndpointValidation: the admin endpoints refuse what they
// must — disabled by default, POST-only, and every begin-time rejection
// (duplicate add, absent drain, last member, unreachable joiner) is a
// 4xx with a reason, leaving no migration registered.
func TestMembershipEndpointValidation(t *testing.T) {
	_, urls := startMembers(t, 2, sketch.BackendConcurrent)

	// Off by default: membership changes rewire write routing.
	_, offTS := newTestRouter(t, Config{Members: urls})
	off := offTS.URL
	resp, raw := postBody(t, off+"/cluster/members", fmt.Sprintf(`{"url":%q}`, urls[0]), nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("add without the flag: status %d (%s), want 403", resp.StatusCode, raw)
	}

	rt, tsrv := newTestRouter(t, Config{Members: urls, AllowMembershipChanges: true})
	ts := tsrv.URL
	if code := getJSON(t, ts+"/cluster/members", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /cluster/members: status %d, want 405", code)
	}
	reject := func(endpoint, body, wantSub string) {
		t.Helper()
		var e struct {
			Error string `json:"error"`
		}
		resp, raw := postBody(t, ts+endpoint, body, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d (%s), want 400", endpoint, body, resp.StatusCode, raw)
		}
		if !strings.Contains(e.Error, wantSub) {
			t.Fatalf("%s %s: error %q does not mention %q", endpoint, body, e.Error, wantSub)
		}
	}
	reject("/cluster/members", `{"url":`, "bad JSON")
	reject("/cluster/members", `{}`, "url is required")
	reject("/cluster/members", fmt.Sprintf(`{"url":%q}`, urls[1]), "already a member")
	reject("/cluster/drain", `{"url":"http://127.0.0.1:9/ghost"}`, "is not a member")

	// An unreachable joiner fails the synchronous preflight probe. The
	// address resets connections (holdPort) so the check is fast.
	dead := holdPort(t, "127.0.0.1:0")
	reject("/cluster/members", fmt.Sprintf(`{"url":"http://%s"}`, dead.Addr()), "not healthy")

	// Every rejection above must leave the router migration-free.
	if st := rt.Stats(); st.Migration != nil {
		t.Fatalf("a rejected change left a migration registered: %+v", st.Migration)
	}

	_, one := startMembers(t, 1, sketch.BackendConcurrent)
	_, lastTS := newTestRouter(t, Config{Members: one, AllowMembershipChanges: true})
	resp, raw = postBody(t, lastTS.URL+"/cluster/drain", fmt.Sprintf(`{"url":%q}`, one[0]), nil)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(raw, []byte("last member")) {
		t.Fatalf("draining the last member: status %d (%s), want 400", resp.StatusCode, raw)
	}
}

// TestClusterMigrationAddEquivalence: the headline tentpole test — a
// 3-member cluster under a live write workload absorbs a fourth member,
// and afterwards every observable matches the single-node oracle. The
// joiner is deliberately slow on /ingest so the copy, catch-up and
// handoff phases genuinely overlap the concurrent writes.
func TestClusterMigrationAddEquivalence(t *testing.T) {
	items := equivStream(250, 1800, 53)
	third := len(items) / 3
	pre, live, post := items[:third], items[third:2*third], items[2*third:]

	_, _, rt, routerURL := migrationCluster(t, 3, sketch.BackendConcurrent,
		Config{BatchSize: 64})
	joiner := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	joiner.setDelay("/ingest", 4*time.Millisecond)

	ingestAll(t, routerURL, pre)

	writerErr := make(chan error, 1)
	go func() { writerErr <- ingestChunks(routerURL, live, 30) }()

	st := changeMembership(t, routerURL, "/cluster/members", joiner.url)
	if err := <-writerErr; err != nil {
		t.Fatalf("concurrent writer during add: %v", err)
	}
	if st.RingVersion != 2 || st.MovedEdges == 0 || st.ForwardedItems == 0 {
		t.Fatalf("add migration moved nothing: %+v", st)
	}

	ingestAll(t, routerURL, post)

	cs := rt.Stats()
	if cs.RingVersion != 2 || len(cs.Ring) != 4 {
		t.Fatalf("ring after add = v%d %v, want v2 with 4 members", cs.RingVersion, cs.Ring)
	}
	if got := joiner.srv.Sketch().Stats().Items; got == 0 {
		t.Fatal("joiner holds no items after the migration")
	}

	oracleURL := oracleOf(t, server.Options{Backend: sketch.BackendConcurrent}, items)
	diffObservables(t, routerURL, oracleURL, items, 701)
}

// TestClusterMigrationDrainEquivalence: the inverse — a 4-member cluster
// under load drains one member; its partitions (and its share of the
// item count, including the aggregation delta the copy compresses away)
// land on the survivors, and the observables still match the oracle.
func TestClusterMigrationDrainEquivalence(t *testing.T) {
	items := equivStream(250, 1800, 59)
	third := len(items) / 3
	pre, live, post := items[:third], items[third:2*third], items[2*third:]

	members, urls, rt, routerURL := migrationCluster(t, 4, sketch.BackendConcurrent,
		Config{BatchSize: 64})
	victim := 1

	ingestAll(t, routerURL, pre)
	if members[victim].srv.Sketch().Stats().Items == 0 {
		t.Fatal("victim member holds nothing; the drain would be vacuous")
	}

	writerErr := make(chan error, 1)
	go func() { writerErr <- ingestChunks(routerURL, live, 30) }()

	st := changeMembership(t, routerURL, "/cluster/drain", urls[victim])
	if err := <-writerErr; err != nil {
		t.Fatalf("concurrent writer during drain: %v", err)
	}
	if st.RingVersion != 2 || st.MovedEdges == 0 {
		t.Fatalf("drain migration moved nothing: %+v", st)
	}

	ingestAll(t, routerURL, post)

	cs := rt.Stats()
	if cs.RingVersion != 2 || len(cs.Ring) != 3 {
		t.Fatalf("ring after drain = v%d %v, want v2 with 3 members", cs.RingVersion, cs.Ring)
	}
	for _, u := range cs.Ring {
		if u == urls[victim] {
			t.Fatalf("drained member still in the ring: %v", cs.Ring)
		}
	}

	oracleURL := oracleOf(t, server.Options{Backend: sketch.BackendConcurrent}, items)
	diffObservables(t, routerURL, oracleURL, items, 733)
}

// TestClusterMigrationSaturatedCatchUp: writers that outpace the
// catch-up relay must not wedge the migration. The catch-up page size
// is shrunk below what a continuous writer sustains and one loser's
// /log is slowed, so the lag never reaches "one batch"; the relay must
// notice the lag has stopped shrinking, hand the bounded remainder to
// the fenced drain, and the migration still completes with the
// observables oracle-clean. Without the stalled-catch-up handover this
// scenario spins in catch-up until the round cap.
func TestClusterMigrationSaturatedCatchUp(t *testing.T) {
	items := equivStream(250, 1800, 61)
	third := len(items) / 3
	pre, live, post := items[:third], items[third:2*third], items[2*third:]

	defer func(old int) { catchUpFetch = old }(catchUpFetch)
	catchUpFetch = 64

	steady := []*testMember{
		migrationMember(t, sketch.BackendConcurrent),
		migrationMember(t, sketch.BackendConcurrent),
	}
	slow := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	slow.setDelay("/log", 15*time.Millisecond)
	urls := []string{steady[0].ts.URL, steady[1].ts.URL, slow.url}
	rt, ts := newTestRouter(t, Config{Members: urls,
		AllowMembershipChanges: true, BatchSize: 64})

	ingestAll(t, ts.URL, pre)

	// The writer replays the live slice until the change completes, so
	// the losers' logs keep growing through every catch-up round. Only
	// whole replays are written: the oracle must see the same stream.
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	replays := make(chan int, 1)
	go func() {
		n := 0
		defer func() { replays <- n }()
		for {
			select {
			case <-stop:
				writerErr <- nil
				return
			default:
			}
			if err := ingestChunks(ts.URL, live, 40); err != nil {
				writerErr <- err
				return
			}
			n++
		}
	}()

	joiner := migrationMember(t, sketch.BackendConcurrent)
	st := changeMembership(t, ts.URL, "/cluster/members", joiner.ts.URL)
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatalf("concurrent writer during saturated add: %v", err)
	}
	n := <-replays
	if n == 0 {
		t.Fatal("writer never completed a replay; the catch-up was not contested")
	}
	if st.ForwardedItems == 0 || st.MovedEdges == 0 {
		t.Fatalf("saturated add moved nothing: %+v", st)
	}

	cs := rt.Stats()
	if cs.RingVersion != 2 || len(cs.Ring) != 4 {
		t.Fatalf("ring after saturated add = v%d %v, want v2 with 4 members",
			cs.RingVersion, cs.Ring)
	}

	ingestAll(t, ts.URL, post)
	full := append([]stream.Item(nil), pre...)
	for i := 0; i < n; i++ {
		full = append(full, live...)
	}
	full = append(full, post...)
	oracleURL := oracleOf(t, server.Options{Backend: sketch.BackendConcurrent}, full)
	diffObservables(t, ts.URL, oracleURL, full, 941)
}

// TestClusterMigrationBackendSweep: add-then-drain under load, once per
// backend — migration treats members as black boxes, so the equivalence
// must hold over every sketch they can be built with. Slow (per-backend
// full migrations plus two diffs), hence gated off -short.
func TestClusterMigrationBackendSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("membership-change backend sweep skipped in -short")
	}
	items := equivStream(250, 2000, 67)
	half := len(items) / 2
	threeQ := half + len(items)/4

	for _, backend := range sketch.Backends() {
		t.Run(backend, func(t *testing.T) {
			opt := server.Options{Backend: backend, Shards: 4,
				// The windowed backend must hold the whole stream live so
				// the window equals the unbounded sketch (the conformance
				// convention).
				WindowSpan: 1 << 40, WindowGenerations: 4}
			memberOpt := func() server.Options {
				o := opt
				o.LogDir = t.TempDir()
				o.LogSyncEvery = -1
				return o
			}
			urls := make([]string, 3)
			for i := range urls {
				m := startMember(t, memberOpt())
				t.Cleanup(m.stop)
				urls[i] = m.ts.URL
			}
			rt, ts := newTestRouter(t, Config{Members: urls,
				AllowMembershipChanges: true, BatchSize: 64})

			ingestAll(t, ts.URL, items[:half])

			joiner := startMember(t, memberOpt())
			t.Cleanup(joiner.stop)
			writerErr := make(chan error, 1)
			go func() { writerErr <- ingestChunks(ts.URL, items[half:threeQ], 40) }()
			changeMembership(t, ts.URL, "/cluster/members", joiner.ts.URL)
			if err := <-writerErr; err != nil {
				t.Fatalf("writer during add: %v", err)
			}

			go func() { writerErr <- ingestChunks(ts.URL, items[threeQ:], 40) }()
			changeMembership(t, ts.URL, "/cluster/drain", urls[0])
			if err := <-writerErr; err != nil {
				t.Fatalf("writer during drain: %v", err)
			}

			cs := rt.Stats()
			if cs.RingVersion != 3 || len(cs.Ring) != 3 {
				t.Fatalf("ring after add+drain = v%d %v, want v3 with 3 members",
					cs.RingVersion, cs.Ring)
			}
			oracleURL := oracleOf(t, opt, items)
			diffObservables(t, ts.URL, oracleURL, items, 811)
		})
	}
}

// TestClusterMigrationKillSourceRollsBack: a source member crashing
// mid-snapshot-transfer fails the migration, the rollback scrubs the
// joiner back to empty, the ring stays at version 1 — and once the
// source is back, the same add succeeds and the observables match the
// oracle.
func TestClusterMigrationKillSourceRollsBack(t *testing.T) {
	items := equivStream(220, 1400, 71)

	steady := []*testMember{
		migrationMember(t, sketch.BackendConcurrent),
		migrationMember(t, sketch.BackendConcurrent),
	}
	source := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	source.setDelay("/partition/export", 150*time.Millisecond)
	urls := []string{steady[0].ts.URL, steady[1].ts.URL, source.url}

	rt, ts := newTestRouter(t, Config{Members: urls,
		AllowMembershipChanges: true, BatchSize: 64,
		ProbeInterval: 25 * time.Millisecond})
	ingestAll(t, ts.URL, items)

	joiner := migrationMember(t, sketch.BackendConcurrent)
	resp, raw := postBody(t, ts.URL+"/cluster/members",
		fmt.Sprintf(`{"url":%q}`, joiner.ts.URL), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("starting add: status %d (%s), want 202", resp.StatusCode, raw)
	}
	waitCluster(t, rt, "migration to start", func(st ClusterStats) bool {
		return st.Migration != nil
	})
	source.kill() // the in-flight (slowed) export aborts mid-transfer

	st := waitCluster(t, rt, "rollback to finish", func(st ClusterStats) bool {
		return st.Migration == nil && st.LastMigration != nil
	})
	if st.LastMigration.Outcome != "failed" || st.LastMigration.Error == "" {
		t.Fatalf("migration with a dead source: %+v", st.LastMigration)
	}
	if st.RingVersion != 1 || len(st.Ring) != 3 {
		t.Fatalf("ring after rollback = v%d %v, want v1 with 3 members", st.RingVersion, st.Ring)
	}
	if got := joiner.srv.Sketch().Stats().Items; got != 0 {
		t.Fatalf("joiner holds %d items after the rollback scrub, want 0", got)
	}

	// Heal the source and retry: the same change must now complete.
	source.revive()
	source.setDelay("/partition/export", 0)
	idx := memberIndex(t, rt, source.url)
	waitMember(t, rt, idx, "source healthy again", func(ms MemberStatus) bool {
		return ms.Healthy
	})
	changeMembership(t, ts.URL, "/cluster/members", joiner.ts.URL)

	cs := rt.Stats()
	if cs.RingVersion != 2 || len(cs.Ring) != 4 {
		t.Fatalf("ring after retried add = v%d %v, want v2 with 4 members", cs.RingVersion, cs.Ring)
	}
	oracleURL := oracleOf(t, server.Options{Backend: sketch.BackendConcurrent}, items)
	diffObservables(t, ts.URL, oracleURL, items, 877)
}

// TestClusterMigrationKillDestinationRollsBack: the destination crashing
// mid-copy (items already forwarded) fails the migration; the rollback
// waits out the dead gainer, scrubs it once it revives, and the cluster
// is exactly what it was — proven by the oracle diff and by the retried
// add succeeding.
func TestClusterMigrationKillDestinationRollsBack(t *testing.T) {
	items := equivStream(220, 1400, 79)

	_, _, rt, routerURL := migrationCluster(t, 3, sketch.BackendConcurrent,
		Config{BatchSize: 64, ProbeInterval: 25 * time.Millisecond})
	ingestAll(t, routerURL, items)

	joiner := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	joiner.setDelay("/ingest", 10*time.Millisecond)

	resp, raw := postBody(t, routerURL+"/cluster/members",
		fmt.Sprintf(`{"url":%q}`, joiner.url), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("starting add: status %d (%s), want 202", resp.StatusCode, raw)
	}
	waitCluster(t, rt, "items to reach the joiner", func(st ClusterStats) bool {
		return st.Migration != nil && st.Migration.ForwardedItems > 0
	})
	joiner.kill()

	// The rollback retries the unreachable gainer; it can only finish
	// after the revive, and must leave the joiner scrubbed to empty.
	waitCluster(t, rt, "rollback to wait on the dead gainer", func(st ClusterStats) bool {
		return st.Migration != nil && st.Migration.Phase == "rollback"
	})
	joiner.revive()
	st := waitCluster(t, rt, "rollback to finish", func(st ClusterStats) bool {
		return st.Migration == nil && st.LastMigration != nil
	})
	if st.LastMigration.Outcome != "failed" {
		t.Fatalf("migration with a dead destination: %+v", st.LastMigration)
	}
	if st.RingVersion != 1 || len(st.Ring) != 3 {
		t.Fatalf("ring after rollback = v%d %v, want v1 with 3 members", st.RingVersion, st.Ring)
	}
	if got := joiner.srv.Sketch().Stats().Items; got != 0 {
		t.Fatalf("joiner holds %d items after the rollback scrub, want 0", got)
	}

	joiner.setDelay("/ingest", 0)
	changeMembership(t, routerURL, "/cluster/members", joiner.url)
	oracleURL := oracleOf(t, server.Options{Backend: sketch.BackendConcurrent}, items)
	diffObservables(t, routerURL, oracleURL, items, 907)
}

// TestRouterRestartRollsBackMigration: a router dying mid-copy leaves an
// uncommitted journal; its successor (same StateDir) must come up on the
// OLD ring, scrub the joiner in the background, clear the journal, and
// serve a cluster indistinguishable from one that never tried.
func TestRouterRestartRollsBackMigration(t *testing.T) {
	items := equivStream(220, 1400, 83)
	stateDir := t.TempDir()

	urls := make([]string, 3)
	for i := range urls {
		m := migrationMember(t, sketch.BackendConcurrent)
		urls[i] = m.ts.URL
	}
	cfg := Config{Members: urls, AllowMembershipChanges: true,
		BatchSize: 64, StateDir: stateDir}
	rt1, ts1 := newTestRouter(t, cfg)
	ingestAll(t, ts1.URL, items)

	joiner := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	joiner.setDelay("/ingest", 10*time.Millisecond)

	resp, raw := postBody(t, ts1.URL+"/cluster/members",
		fmt.Sprintf(`{"url":%q}`, joiner.url), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("starting add: status %d (%s), want 202", resp.StatusCode, raw)
	}
	waitCluster(t, rt1, "items to reach the joiner", func(st ClusterStats) bool {
		return st.Migration != nil && st.Migration.ForwardedItems > 0
	})
	rt1.Close() // dies mid-copy; the journal must survive for the successor

	if _, err := os.Stat(filepath.Join(stateDir, journalFile)); err != nil {
		t.Fatalf("no journal after a mid-migration close: %v", err)
	}

	joiner.setDelay("/ingest", 0)
	// A delayed forward from rt1 may still be inside the joiner's
	// handler; let it land before rt2's recovery scrubs, or it would
	// resurrect items after the scrub.
	joiner.waitIdle(t)
	rt2, ts2 := newTestRouter(t, cfg)
	st := waitCluster(t, rt2, "recovered rollback to finish", func(st ClusterStats) bool {
		return st.Migration == nil && st.LastMigration != nil
	})
	if st.LastMigration.Outcome != "failed" {
		t.Fatalf("recovered migration: %+v", st.LastMigration)
	}
	if st.RingVersion != 1 || !sameMembers(st.Ring, urls) {
		t.Fatalf("recovered ring = v%d %v, want v1 over the original members", st.RingVersion, st.Ring)
	}
	if got := joiner.srv.Sketch().Stats().Items; got != 0 {
		t.Fatalf("joiner holds %d items after the recovered rollback, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(stateDir, journalFile)); !os.IsNotExist(err) {
		t.Fatalf("journal not cleared after the recovered rollback: %v", err)
	}

	oracleURL := oracleOf(t, server.Options{Backend: sketch.BackendConcurrent}, items)
	diffObservables(t, ts2.URL, oracleURL, items, 911)
}

// TestRouterRestartRollsForwardCommittedMigration: once the journal
// records the cutover, a membership change only completes. The router is
// killed while a loser refuses its post-cutover /partition/drop; the
// successor must come up on the NEW ring, finish the remaining drops
// exactly once each, persist the member list, and diff clean.
func TestRouterRestartRollsForwardCommittedMigration(t *testing.T) {
	items := equivStream(220, 1400, 89)
	stateDir := t.TempDir()

	steady := []*testMember{
		migrationMember(t, sketch.BackendConcurrent),
		migrationMember(t, sketch.BackendConcurrent),
	}
	stubborn := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	// Reject — not delay — the drop: a 503 never runs the handler, so the
	// drop's item subtraction cannot half-apply across the restart.
	stubborn.setReject("/partition/drop", http.StatusServiceUnavailable)
	urls := []string{steady[0].ts.URL, steady[1].ts.URL, stubborn.url}

	cfg := Config{Members: urls, AllowMembershipChanges: true,
		BatchSize: 64, StateDir: stateDir}
	rt1, ts1 := newTestRouter(t, cfg)
	ingestAll(t, ts1.URL, items)

	joiner := migrationMember(t, sketch.BackendConcurrent)
	resp, raw := postBody(t, ts1.URL+"/cluster/members",
		fmt.Sprintf(`{"url":%q}`, joiner.ts.URL), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("starting add: status %d (%s), want 202", resp.StatusCode, raw)
	}
	waitCluster(t, rt1, "cutover to commit", func(st ClusterStats) bool {
		return st.Migration != nil && st.Migration.Phase == "drop"
	})
	time.Sleep(100 * time.Millisecond) // let some drops land, some retry
	rt1.Close()

	if _, err := os.Stat(filepath.Join(stateDir, journalFile)); err != nil {
		t.Fatalf("no journal after a mid-drop close: %v", err)
	}

	stubborn.setReject("/partition/drop", 0)
	rt2, ts2 := newTestRouter(t, cfg)
	st := waitCluster(t, rt2, "recovered roll-forward to finish", func(st ClusterStats) bool {
		return st.Migration == nil && st.LastMigration != nil
	})
	if st.LastMigration.Outcome != "done" {
		t.Fatalf("recovered committed migration: %+v", st.LastMigration)
	}
	if st.RingVersion != 2 || len(st.Ring) != 4 {
		t.Fatalf("recovered ring = v%d %v, want v2 with 4 members", st.RingVersion, st.Ring)
	}
	if _, err := os.Stat(filepath.Join(stateDir, journalFile)); !os.IsNotExist(err) {
		t.Fatalf("journal not cleared after the roll-forward: %v", err)
	}
	var sm savedMembers
	data, err := os.ReadFile(filepath.Join(stateDir, membersFile))
	if err != nil {
		t.Fatalf("no persisted member list after the roll-forward: %v", err)
	}
	if err := json.Unmarshal(data, &sm); err != nil || len(sm.Members) != 4 || sm.RingVersion != 2 {
		t.Fatalf("persisted member list = %s (err %v), want 4 members at v2", data, err)
	}

	oracleURL := oracleOf(t, server.Options{Backend: sketch.BackendConcurrent}, items)
	diffObservables(t, ts2.URL, oracleURL, items, 919)
}

// TestRouterCloseDuringMigration: the repo's loop-ownership convention
// applied to the migrator — Close during an in-flight migration cancels
// the copy loop, the rollback's retry loops, and every fan-out, with the
// goroutine count returning to baseline.
func TestRouterCloseDuringMigration(t *testing.T) {
	before := runtime.NumGoroutine()
	client := &http.Client{}

	urls := make([]string, 3)
	var stops []func()
	for i := range urls {
		m := startMember(t, server.Options{Backend: sketch.BackendConcurrent,
			LogDir: t.TempDir(), LogSyncEvery: -1})
		stops = append(stops, m.stop)
		urls[i] = m.ts.URL
	}
	joiner := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent})
	joiner.setDelay("/ingest", 25*time.Millisecond)

	rt, err := New(Config{Members: urls, AllowMembershipChanges: true,
		BatchSize: 32, ProbeInterval: 10 * time.Millisecond,
		Client: client, Logf: silentLogf})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := stream.EncodeNDJSON(&buf, equivStream(200, 1200, 97)); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", &buf))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/cluster/members",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, joiner.url))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("starting add: status %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := rt.Stats()
		if st.Migration != nil && st.Migration.ForwardedItems > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never started forwarding")
		}
		time.Sleep(2 * time.Millisecond)
	}

	rt.Close() // must cancel the in-flight copy and the rollback retries
	st := rt.Stats()
	if st.Migration != nil {
		t.Fatalf("migration still registered after Close: %+v", st.Migration)
	}
	if st.LastMigration == nil || st.LastMigration.Outcome != "failed" {
		t.Fatalf("cancelled migration not recorded as failed: %+v", st.LastMigration)
	}
	rt.Close() // idempotent

	joiner.stop()
	for _, stop := range stops {
		stop()
	}
	waitForGoroutines(t, before, client.CloseIdleConnections)
}

// TestClusterStatsCoherentDuringMigration: a /cluster/stats poll during
// a membership change must never observe a half-applied ring — the ring
// is exactly the old list or exactly the new one, the version matches
// the list it claims, and versions never go backwards. A second change
// attempted mid-flight answers 409.
func TestClusterStatsCoherentDuringMigration(t *testing.T) {
	items := equivStream(220, 1400, 101)
	_, urls, _, routerURL := migrationCluster(t, 3, sketch.BackendConcurrent,
		Config{BatchSize: 64})
	ingestAll(t, routerURL, items)

	joiner := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	joiner.setDelay("/ingest", 10*time.Millisecond)
	newList := append(append([]string(nil), urls...), joiner.url)

	resp, raw := postBody(t, routerURL+"/cluster/members",
		fmt.Sprintf(`{"url":%q}`, joiner.url), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("starting add: status %d (%s), want 202", resp.StatusCode, raw)
	}

	var lastVersion int64
	sawInFlight, checked409 := false, false
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st ClusterStats
		if code := getJSON(t, routerURL+"/cluster/stats", &st); code != http.StatusOK {
			t.Fatalf("/cluster/stats during migration: status %d", code)
		}
		if st.RingVersion < lastVersion {
			t.Fatalf("ring version went backwards: %d after %d", st.RingVersion, lastVersion)
		}
		lastVersion = st.RingVersion
		switch st.RingVersion {
		case 1:
			if !sameMembers(st.Ring, urls) {
				t.Fatalf("v1 ring is not the old member list: %v", st.Ring)
			}
		case 2:
			if !sameMembers(st.Ring, newList) {
				t.Fatalf("v2 ring is not the new member list: %v", st.Ring)
			}
		default:
			t.Fatalf("impossible ring version %d", st.RingVersion)
		}
		if st.Migration != nil {
			sawInFlight = true
			if st.Migration.Mode != "add" || st.Migration.RingVersion != 2 {
				t.Fatalf("in-flight migration block inconsistent: %+v", st.Migration)
			}
			if !checked409 {
				checked409 = true
				r2, raw2 := postBody(t, routerURL+"/cluster/drain",
					fmt.Sprintf(`{"url":%q}`, urls[0]), nil)
				if r2.StatusCode != http.StatusConflict {
					t.Fatalf("second change mid-flight: status %d (%s), want 409",
						r2.StatusCode, raw2)
				}
			}
		}
		if st.Migration == nil && st.LastMigration != nil {
			if st.LastMigration.Outcome != "done" {
				t.Fatalf("migration failed under the stats poll: %+v", st.LastMigration)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never finished under the stats poll")
		}
	}
	if !sawInFlight {
		t.Fatal("the poll never observed the migration in flight; slow the joiner down")
	}
	if !checked409 {
		t.Fatal("the 409 probe never ran")
	}
}
