package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/gss"
	"repro/internal/stream"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(gss.Config{Width: 32, FingerprintBits: 16, Rooms: 2, SeqLen: 4, Candidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSingleAndQuery(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/insert", `{"src":"a","dst":"b","weight":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	resp.Body.Close()

	var edge struct {
		Weight int64 `json:"weight"`
		Found  bool  `json:"found"`
	}
	getJSON(t, ts.URL+"/edge?src=a&dst=b", &edge)
	if !edge.Found || edge.Weight != 5 {
		t.Fatalf("edge = %+v", edge)
	}
}

func TestInsertBatch(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/insert",
		`[{"src":"a","dst":"b","weight":1},{"src":"b","dst":"c","weight":2},{"src":"a","dst":"b","weight":3}]`)
	var ack struct {
		Inserted int `json:"inserted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Inserted != 3 {
		t.Fatalf("inserted = %d", ack.Inserted)
	}
	var edge struct {
		Weight int64 `json:"weight"`
	}
	getJSON(t, ts.URL+"/edge?src=a&dst=b", &edge)
	if edge.Weight != 4 {
		t.Fatalf("batched weight = %d, want 4", edge.Weight)
	}
}

func TestNeighborsAndNodeOutAndReachable(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/insert",
		`[{"src":"a","dst":"b","weight":1},{"src":"a","dst":"c","weight":2},{"src":"c","dst":"d","weight":4}]`).Body.Close()

	var succ struct {
		Nodes []string `json:"nodes"`
	}
	getJSON(t, ts.URL+"/successors?v=a", &succ)
	if len(succ.Nodes) != 2 {
		t.Fatalf("successors = %v", succ.Nodes)
	}
	var prec struct {
		Nodes []string `json:"nodes"`
	}
	getJSON(t, ts.URL+"/precursors?v=d", &prec)
	if len(prec.Nodes) != 1 || prec.Nodes[0] != "c" {
		t.Fatalf("precursors = %v", prec.Nodes)
	}
	var out struct {
		Out int64 `json:"out"`
	}
	getJSON(t, ts.URL+"/nodeout?v=a", &out)
	if out.Out != 3 {
		t.Fatalf("nodeout = %d", out.Out)
	}
	var reach struct {
		Reachable bool `json:"reachable"`
	}
	getJSON(t, ts.URL+"/reachable?src=a&dst=d", &reach)
	if !reach.Reachable {
		t.Fatal("a->d should be reachable")
	}
	getJSON(t, ts.URL+"/reachable?src=d&dst=a", &reach)
	if reach.Reachable {
		t.Fatal("d->a should be unreachable")
	}
	// Unknown node: empty list, not an error.
	getJSON(t, ts.URL+"/successors?v=ghost", &succ)
	if len(succ.Nodes) != 0 {
		t.Fatalf("ghost successors = %v", succ.Nodes)
	}
}

func TestHeavyEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/insert",
		`[{"src":"big","dst":"flow","weight":500},{"src":"small","dst":"flow","weight":2}]`).Body.Close()
	var heavy []struct {
		Srcs   []string `json:"srcs"`
		Weight int64    `json:"weight"`
	}
	getJSON(t, ts.URL+"/heavy?min=100", &heavy)
	if len(heavy) != 1 || heavy[0].Weight != 500 || heavy[0].Srcs[0] != "big" {
		t.Fatalf("heavy = %+v", heavy)
	}
}

func TestStats(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/insert", `{"src":"a","dst":"b","weight":1}`).Body.Close()
	var st gss.Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Items != 1 || st.MatrixEdges != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotRestoreCycle(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/insert", `{"src":"a","dst":"b","weight":9}`).Body.Close()

	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	// Restore into a second server.
	_, ts2 := newTestServer(t)
	resp2, err := http.Post(ts2.URL+"/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", resp2.StatusCode)
	}
	var edge struct {
		Weight int64 `json:"weight"`
		Found  bool  `json:"found"`
	}
	getJSON(t, ts2.URL+"/edge?src=a&dst=b", &edge)
	if !edge.Found || edge.Weight != 9 {
		t.Fatalf("restored edge = %+v", edge)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		method, path, body string
	}{
		{"GET", "/insert", ""},
		{"POST", "/insert", `{"dst":"b"}`},
		{"POST", "/insert", `not json`},
		{"GET", "/edge?src=a", ""},
		{"GET", "/successors", ""},
		{"GET", "/nodeout", ""},
		{"GET", "/reachable?src=a", ""},
		{"GET", "/heavy?min=0", ""},
		{"GET", "/heavy?min=abc", ""},
		{"POST", "/restore", "garbage"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s %s accepted", c.method, c.path)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body := fmt.Sprintf(`{"src":"s%d","dst":"d%d","weight":1}`, w, i)
				resp, err := http.Post(ts.URL+"/insert", "application/json", strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
				resp2, err := http.Get(ts.URL + fmt.Sprintf("/edge?src=s%d&dst=d%d", w, i))
				if err == nil {
					resp2.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	var st gss.Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Items != 200 {
		t.Fatalf("items = %d, want 200", st.Items)
	}
}

// TestHealthz: liveness endpoint reports role, backend and uptime —
// the cluster router's prober parses exactly these fields.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var hz Healthz
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Role != "primary" {
		t.Fatalf("healthz = %+v, want status ok role primary", hz)
	}
	if hz.Backend == "" {
		t.Fatalf("healthz missing backend name: %+v", hz)
	}
	if hz.UptimeSeconds < 0 {
		t.Fatalf("negative uptime: %+v", hz)
	}
}

// TestNodeIn: the in-aggregate endpoint, symmetric to /nodeout.
func TestNodeIn(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/insert",
		`[{"src":"a","dst":"hub","weight":3},{"src":"b","dst":"hub","weight":4},{"src":"hub","dst":"c","weight":9}]`)
	resp.Body.Close()
	var in struct {
		V  string `json:"v"`
		In int64  `json:"in"`
	}
	getJSON(t, ts.URL+"/nodein?v=hub", &in)
	if in.In != 7 {
		t.Fatalf("nodein(hub) = %d, want 7", in.In)
	}
	r, err := http.Get(ts.URL + "/nodein")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing v: status %d, want 400", r.StatusCode)
	}
}

// TestInsertBodyTooLarge: /insert reads at most stream.MaxInsertBytes
// (the bound the cluster router shares) and answers 413 past it,
// instead of accumulating an unbounded item slice.
func TestInsertBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t)
	item := `{"src":"a","dst":"b"}`
	fits := "[" + item + strings.Repeat(" ", stream.MaxInsertBytes-len(item)-2) + "]"
	resp := post(t, ts.URL+"/insert", fits)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body of exactly the cap: status %d, want 200", resp.StatusCode)
	}
	over := "[" + item + strings.Repeat(" ", stream.MaxInsertBytes-len(item)-1) + "]"
	resp = post(t, ts.URL+"/insert", over)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte past the cap: status %d (%s), want 413", resp.StatusCode, raw)
	}
	if got := s.Sketch().Stats().Items; got != 1 {
		t.Fatalf("sketch holds %d items after the refused body, want 1", got)
	}
}
