package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// The router hashes once at the edge: every write it sends a member —
// NDJSON /ingest, /insert, spill replay, migration copy — is a GSB1
// /ingest request. These tests pin that contract and the write-side
// behaviours that hang off it.

// memberMetric returns the value of one exposition line on a member's
// /metrics and whether the series exists at all.
func memberMetric(t *testing.T, baseURL, series string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scraping %s: %v", baseURL, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s on %s: %v", series, baseURL, err)
			}
			return f, true
		}
	}
	return 0, false
}

// TestRouterWritesMembersOnlyGSB1 drives every router write path — an
// NDJSON /ingest, /insert arrays, a spill replay after a member outage
// and the copy of a live membership change — and then demands that no
// member ever saw an NDJSON item or an /insert request, and that the
// cluster answers like one server fed the same stream.
func TestRouterWritesMembersOnlyGSB1(t *testing.T) {
	items := equivStream(200, 1200, 131)
	q := len(items) / 4
	ndjsonPart, insertPart, spillPart, postPart := items[:q], items[q:2*q], items[2*q:3*q], items[3*q:]

	members := make([]*faultMember, 3)
	urls := make([]string, 3)
	for i := range members {
		members[i] = startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
			LogDir: t.TempDir(), LogSyncEvery: -1})
		urls[i] = members[i].url
	}
	rt, ts := newTestRouter(t, Config{Members: urls, AllowMembershipChanges: true,
		BatchSize: 64, ProbeInterval: 20 * time.Millisecond, SpillDir: t.TempDir()})

	// NDJSON /ingest.
	ingestAll(t, ts.URL, ndjsonPart)

	// /insert, as arrays of a few dozen items.
	for s := 0; s < len(insertPart); s += 40 {
		var body bytes.Buffer
		body.WriteByte('[')
		for i, it := range insertPart[s:min(s+40, len(insertPart))] {
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"src":%q,"dst":%q,"weight":%d,"time":%d}`, it.Src, it.Dst, it.Weight, it.Time)
		}
		body.WriteByte(']')
		if resp, raw := postBody(t, ts.URL+"/insert", body.String(), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: status %d (%s)", resp.StatusCode, raw)
		}
	}

	// A member outage: its share of the next upload spills, then
	// replays once it is back.
	down := members[1]
	idx := memberIndex(t, rt, down.url)
	down.kill()
	waitMember(t, rt, idx, "member down", func(ms MemberStatus) bool { return !ms.Healthy })
	var res struct {
		Ingested int64 `json:"ingested"`
		Spilled  int64 `json:"spilled"`
	}
	resp, raw := postBody(t, ts.URL+"/ingest", ndjsonBody(spillPart), &res)
	if resp.StatusCode != http.StatusOK || res.Spilled == 0 || res.Ingested+res.Spilled != int64(len(spillPart)) {
		t.Fatalf("ingest during outage: status %d (%s), want 200 with a spilled share", resp.StatusCode, raw)
	}
	down.revive()
	waitMember(t, rt, idx, "spill replayed", func(ms MemberStatus) bool {
		return ms.Healthy && ms.Spill.PendingItems == 0 && ms.Spill.ReplayedItems == res.Spilled
	})

	// A live membership change copies partitions to a new member.
	joiner := startFaultMember(t, server.Options{Backend: sketch.BackendConcurrent,
		LogDir: t.TempDir(), LogSyncEvery: -1})
	if st := changeMembership(t, ts.URL, "/cluster/members", joiner.url); st.MovedEdges == 0 {
		t.Fatalf("membership change moved nothing: %+v", st)
	}
	ingestAll(t, ts.URL, postPart)

	for _, m := range append(members, joiner) {
		base := m.backend.URL
		if n, ok := memberMetric(t, base, `gss_ingest_items_total{plane="ndjson"}`); !ok || n != 0 {
			t.Errorf("member %s: NDJSON items %v (series present %v); the router must send only GSB1", m.url, n, ok)
		}
		if n, _ := memberMetric(t, base, `gss_ingest_items_total{plane="gsb1"}`); n == 0 {
			t.Errorf("member %s received no GSB1 items", m.url)
		}
		for _, class := range []string{"2xx", "4xx", "5xx"} {
			series := `gss_http_requests_total{route="/insert",class="` + class + `"}`
			if n, _ := memberMetric(t, base, series); n != 0 {
				t.Errorf("member %s served %v /insert requests (%s)", m.url, n, class)
			}
		}
	}
	oracleURL := oracleOf(t, server.Options{Backend: sketch.BackendConcurrent}, items)
	diffObservables(t, ts.URL, oracleURL, items, 137)
}

// TestRouterSplitsMemberFramesAtByteCap: a member frame closes at the
// frame byte cap as well as at the batch size, so identifiers long
// enough to put a batch of records past the cap still route — on both
// planes — instead of the member refusing an oversized frame.
func TestRouterSplitsMemberFramesAtByteCap(t *testing.T) {
	const n = 600 // at the default batch of 512, ~10 MiB per frame: past the 8 MiB cap
	long := strings.Repeat("x", 20<<10)
	items := make([]stream.Item, n)
	for i := range items {
		items[i] = stream.Item{Src: long + strconv.Itoa(i), Dst: "d" + strconv.Itoa(i%7), Weight: 1, Time: 1}
	}
	for _, plane := range []string{"gsb1", "ndjson"} {
		t.Run(plane, func(t *testing.T) {
			ms, urls := startMembers(t, 1, sketch.BackendConcurrent)
			_, ts := newTestRouter(t, Config{Members: urls})
			var res struct {
				Ingested int64 `json:"ingested"`
			}
			var resp *http.Response
			var raw []byte
			if plane == "gsb1" {
				resp, raw = postBinaryBody(t, ts.URL+"/ingest", gsb1Body(t, items, n), &res)
			} else {
				resp, raw = postBody(t, ts.URL+"/ingest", ndjsonBody(items), &res)
			}
			if resp.StatusCode != http.StatusOK || res.Ingested != n {
				t.Fatalf("status %d (%.200s), ingested %d; want 200 and %d", resp.StatusCode, raw, res.Ingested, n)
			}
			if got := ms[0].srv.Sketch().Stats().Items; got != n {
				t.Fatalf("member holds %d items, want %d", got, n)
			}
		})
	}
}

// TestInsertBodyParity posts the same /insert bodies to a server and
// through a router (over one member): both answer the same status, and
// after every body the member behind the router holds exactly the
// sketch the directly-fed server holds.
func TestInsertBodyParity(t *testing.T) {
	now := func() int64 { return 42 }
	direct := startMember(t, server.Options{Backend: sketch.BackendConcurrent, Now: now})
	t.Cleanup(direct.stop)
	behind := startMember(t, server.Options{Backend: sketch.BackendConcurrent, Now: now})
	t.Cleanup(behind.stop)
	_, ts := newTestRouter(t, Config{Members: []string{behind.ts.URL}})

	bodies := []struct {
		body string
		want int
	}{
		{`{"src":"a","dst":"b"}`, http.StatusOK},
		{`{"SRC":"a","DST":"b"}`, http.StatusOK},
		{`[{"SRC":"a","DST":"b"}]`, http.StatusOK},
		{`{"src":"a","dst":"b"} trailing garbage`, http.StatusBadRequest},
		{`[{"src":"a","dst":"b"}] trailing garbage`, http.StatusBadRequest},
		{`[{"src":"a","dst":"b","weight":3},{"src":"c","dst":"d","weight":-2,"time":5,"label":1}]`, http.StatusOK},
		{` {"src":"e","dst":"f","time":9}` + "\n", http.StatusOK},
		{`[]`, http.StatusOK},
		{``, http.StatusBadRequest},
		{`"just a string"`, http.StatusBadRequest},
		{`{"src":"a"}`, http.StatusBadRequest},
		{`[{"src":"a","dst":"b"},42]`, http.StatusBadRequest},
		{`[{"src":"a","dst":"b"}`, http.StatusBadRequest},
		{`{"src":"é","dst":"b","weight":2}`, http.StatusOK},
	}
	snapshot := func(m *testMember) []byte {
		var buf bytes.Buffer
		if err := m.srv.Sketch().Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range bodies {
		dresp, draw := postBody(t, direct.ts.URL+"/insert", c.body, nil)
		rresp, rraw := postBody(t, ts.URL+"/insert", c.body, nil)
		if dresp.StatusCode != c.want || rresp.StatusCode != c.want {
			t.Errorf("%q: server %d (%s), router %d (%s); want %d",
				c.body, dresp.StatusCode, bytes.TrimSpace(draw), rresp.StatusCode, bytes.TrimSpace(rraw), c.want)
		}
		if !bytes.Equal(snapshot(direct), snapshot(behind)) {
			t.Fatalf("after %q the member behind the router diverged from the server", c.body)
		}
	}
	if got := direct.srv.Sketch().Stats().Items; got != 7 {
		t.Fatalf("server applied %d items, want 7", got)
	}
}

// TestRouterInsertBodyTooLarge: the router's /insert bound is the
// server's — stream.MaxInsertBytes, past which the answer is 413 —
// rather than a silent truncation surfacing as a bad item.
func TestRouterInsertBodyTooLarge(t *testing.T) {
	_, urls := startMembers(t, 1, sketch.BackendConcurrent)
	_, ts := newTestRouter(t, Config{Members: urls})
	item := `{"src":"a","dst":"b"}`
	fits := "[" + item + strings.Repeat(" ", stream.MaxInsertBytes-len(item)-2) + "]"
	if resp, raw := postBody(t, ts.URL+"/insert", fits, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("body of exactly the cap: status %d (%s), want 200", resp.StatusCode, raw)
	}
	over := "[" + item + strings.Repeat(" ", stream.MaxInsertBytes-len(item)-1) + "]"
	if resp, raw := postBody(t, ts.URL+"/insert", over, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte past the cap: status %d (%s), want 413", resp.StatusCode, raw)
	}
}
