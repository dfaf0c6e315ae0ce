package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// testDataset is a five-edge graph: n1→n2 (weight 5), n1→n3, n3→n4,
// n4→n5, n2→n5.
func testDataset(t *testing.T) *dataset {
	t.Helper()
	items := []stream.Item{
		{Src: "n1", Dst: "n2", Weight: 5, Time: 1},
		{Src: "n1", Dst: "n3", Weight: 2, Time: 2},
		{Src: "n3", Dst: "n4", Weight: 1, Time: 3},
		{Src: "n4", Dst: "n5", Weight: 1, Time: 4},
		{Src: "n2", Dst: "n5", Weight: 3, Time: 5},
	}
	d, err := buildDataset(items, 8)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fakeService answers each route with a fixed status and body.
func fakeService(t *testing.T, answers map[string]string, status map[string]int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if code, ok := status[r.URL.Path]; ok {
			w.WriteHeader(code)
		}
		fmt.Fprint(w, answers[r.URL.Path])
	}))
	t.Cleanup(srv.Close)
	return srv
}

// Every wrong answer the service can give must count as a failed
// operation, and the right answer must not.
func TestCheckerCountsWrongAnswersAsFailed(t *testing.T) {
	d := testDataset(t)
	cases := []struct {
		name   string
		route  string
		wrong  string
		right  string
		status int
		op     func(ck *checker) (class, error)
	}{
		{
			name: "edge weight below the true weight", route: "/edge",
			wrong: `{"weight":4}`, right: `{"weight":5}`,
			op: func(ck *checker) (class, error) {
				_, err := ck.edge("n1", "n2", ck.refWeight("n1", "n2"))
				return cEdge, err
			},
		},
		{
			name: "successor set missing a neighbour", route: "/successors",
			wrong: `{"nodes":["n2"],"v":"n1"}`, right: `{"nodes":["n3","n2","n7"],"v":"n1"}`,
			op: func(ck *checker) (class, error) {
				_, err := ck.neighbors("n1", true)
				return cNeighbors, err
			},
		},
		{
			name: "precursor set missing a neighbour", route: "/precursors",
			wrong: `{"nodes":["n4"],"v":"n5"}`, right: `{"nodes":["n4","n2"],"v":"n5"}`,
			op: func(ck *checker) (class, error) {
				_, err := ck.neighbors("n5", false)
				return cNeighbors, err
			},
		},
		{
			name: "false-negative reachability", route: "/reachable",
			wrong: `{"reachable":false}`, right: `{"reachable":true}`,
			op: func(ck *checker) (class, error) {
				_, err := ck.reach("n1", "n5")
				return cReach, err
			},
		},
		{
			name: "ingest answered 429", route: "/ingest", status: http.StatusTooManyRequests,
			wrong: `{"error":"ingest queue full"}`, right: `{"ingested":5}`,
			op: func(ck *checker) (class, error) {
				return cIngest, ck.ingest(d.gsb1[0], true, d.bodyLen(0))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, wrong := range []bool{true, false} {
				answer, status := tc.right, map[string]int{}
				if wrong {
					answer = tc.wrong
					if tc.status != 0 {
						status[tc.route] = tc.status
					}
				}
				srv := fakeService(t, map[string]string{tc.route: answer}, status)
				var tl tally
				c, err := tc.op(newChecker(d, srv.URL, srv.Client()))
				tl.record(c, time.Now(), err)
				want := int64(0)
				if wrong {
					want = 1
				}
				if tl.failed != want || tl.attempted != 1 {
					t.Errorf("wrong=%v: failed %d of %d attempted (err %v), want %d of 1", wrong, tl.failed, tl.attempted, err, want)
				}
				if wrong && len(tl.lat[c]) != 0 {
					t.Errorf("a failed operation entered the latency samples")
				}
			}
		})
	}
}

// The mixed workload's open-loop writer books a 429 as a failed
// operation, while its reader's correct answers pass.
func TestMixedWriterCounts429AsFailed(t *testing.T) {
	d := testDataset(t)
	all := `{"nodes":["n1","n2","n3","n4","n5"]}`
	srv := fakeService(t, map[string]string{
		"/ingest":     `{"error":"ingest queue full"}`,
		"/edge":       `{"weight":1000000}`,
		"/successors": all,
		"/precursors": all,
		"/heavy":      `[]`,
	}, map[string]int{"/ingest": http.StatusTooManyRequests})
	r := &runner{spec: specs["mixed"], d: d, front: &proc{url: srv.URL}, acks: make([]int64, len(d.ndjson))}
	var total tally
	for _, tl := range mixedMain(r, time.Now().Add(300*time.Millisecond)) {
		total.merge(tl)
	}
	for _, e := range total.errs {
		if !strings.Contains(e, "/ingest: status 429") {
			t.Errorf("unexpected failure %q", e)
		}
	}
	if total.failed == 0 || len(total.lat[cIngest]) != 0 || total.items != 0 {
		t.Errorf("writer: %d failed, %d timed, %d items acknowledged; want every write failed",
			total.failed, len(total.lat[cIngest]), total.items)
	}
	if total.reads == 0 || total.attempted != total.reads+total.failed {
		t.Errorf("reader: %d reads of %d attempted with %d failed", total.reads, total.attempted, total.failed)
	}
}

// The scrape parser keeps _sum, _count, counters and gauges and drops
// histogram buckets, which may disagree with _count under concurrent
// observation.
func TestParseExpositionIgnoresBuckets(t *testing.T) {
	text := `# HELP gss_http_request_seconds Request latency in seconds, by route.
# TYPE gss_http_request_seconds histogram
gss_http_request_seconds_bucket{route="/edge",le="0.001"} 9
gss_http_request_seconds_bucket{route="/edge",le="+Inf"} 7
gss_http_request_seconds_sum{route="/edge"} 0.5
gss_http_request_seconds_count{route="/edge"} 8
gss_ingest_items_total{plane="ndjson"} 1000
gss_sketch_occupancy 0.25
`
	s, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for k := range s {
		if strings.Contains(k, "_bucket") {
			t.Errorf("kept bucket sample %s", k)
		}
	}
	if len(s) != 4 {
		t.Errorf("kept %d samples, want 4: %v", len(s), s)
	}
	if n := delta([]series{{}}, []series{s}, `gss_http_request_seconds_count{route="/edge"}`); n != 8 {
		t.Errorf("count delta %v, want 8", n)
	}
}

func TestMarkNodes(t *testing.T) {
	bits := make([]uint64, 1)
	for _, body := range []string{
		`{"nodes":["n1","n3","n3"],"v":"n0"}`,
		`{"v":"n0","nodes":["n3","n1"]}`,
		`{"nodes": ["n1", "n3"]}`,
	} {
		clear(bits)
		n, err := markNodes([]byte(body), bits)
		if err != nil || n != 2 || bits[0] != 1<<1|1<<3 {
			t.Errorf("%s: n=%d bits=%b err=%v", body, n, bits[0], err)
		}
	}
	if _, err := markNodes([]byte(`{"nodes":["x9"]}`), bits); err == nil {
		t.Errorf("accepted a node that is not in the stream")
	}
}

// The JSON line carries exactly the metrics BENCHMARK.json names: the
// end-to-end list untraced, the per-layer list traced.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	r := &runner{name: "ingest", spec: specs["ingest"], d: testDataset(t),
		mainAt: interval{from: now, to: now.Add(time.Second)}, startS: []float64{0.1}}
	for c := range r.main.lat {
		r.main.lat[c] = []sample{{due: now.UnixNano(), dur: 1000, n: 1}}
	}
	for i := range r.scrapes {
		r.scrapes[i] = [][]series{{{}}, nil}
	}
	rep := newReport(r)
	rep.addLayers(r, &layers{c: counts{idsPerQuery: []int64{1}}, untracedWall: []time.Duration{1, 1}, tracedWall: 1})
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: report has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: report %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", rep.endToEnd, spec.EndToEnd)
	check("per_layer", rep.layers, spec.PerLayer)
	for _, m := range rep.layers {
		if predictions[m.Name] == "" {
			t.Errorf("per-layer metric %s has no prediction", m.Name)
		}
	}
}
