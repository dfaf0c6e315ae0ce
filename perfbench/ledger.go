package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Predictions: which end-to-end metric, on which workload, each
// per-layer metric is expected to move. README.md carries the same
// table; later changes quote it by metric name.
var predictions = map[string]string{
	"stream.ndjson_decode_ns_per_item":      "ingest_items_per_s, ingest_p50_ms on ingest, routed; none on mixed",
	"stream.ndjson_allocs_per_item":         "ingest_items_per_s, ingest_p50_ms on ingest, routed; none on mixed",
	"stream.gsb1_decode_ns_per_item":        "ingest_p99_ms on mixed; none on ingest",
	"stream.gsb1_allocs_per_item":           "ingest_p99_ms on mixed; none on ingest",
	"stream.scan_line_ns":                   "ingest_items_per_s on routed",
	"cluster.owner_ns":                      "ingest_items_per_s on routed",
	"oplog.append_ns_per_item":              "ingest_p50_ms on ingest",
	"oplog.append_encoded_ns_per_item":      "ingest_p50_ms on mixed",
	"oplog.syncs_per_s":                     "ingest_p99_ms on ingest",
	"oplog.bytes_per_item":                  "ingest_p99_ms on ingest",
	"gss.insert_ns_per_item":                "ingest_items_per_s on ingest",
	"gss.insert_hashed_ns_per_item":         "ingest_items_per_s on mixed",
	"sketch.contention_ns_per_item":         "ingest_p99_ms, edge_p99_us on mixed",
	"gss.heavy_scan_ms":                     "scan_p50_ms, ingest_p99_ms on mixed",
	"gss.edge_ns":                           "edge_p50_us on read (a small share: HTTP dominates)",
	"gss.succ_hashes_ns":                    "neighbors_p50_us, neighbors_p99_us on read",
	"gss.pred_hashes_ns":                    "neighbors_p50_us, neighbors_p99_us on read",
	"gss.expand_ns_per_id":                  "neighbors_p50_us, neighbors_p99_us on read",
	"gss.ids_per_neighbors_query_p50":       "neighbors_p50_us on read (a count: repeats exactly per seed)",
	"gss.ids_per_neighbors_query_p99":       "neighbors_p99_us on read (a count: repeats exactly per seed)",
	"server.encode_ns_per_id":               "neighbors_p99_us on read",
	"query.reach_ns":                        "reach_p50_us, reach_p99_us on read",
	"query.reach_true_ratio":                "reach_p50_us, reach_p99_us on read",
	"server.unexplained_ns_per_item":        "ingest_items_per_s on ingest",
	"gss.matrix_edges":                      "edge_are, succ_precision, server_rss_mb",
	"gss.buffer_edges":                      "edge_are, succ_precision, server_rss_mb",
	"gss.occupancy":                         "edge_are, succ_precision, server_rss_mb",
	"gss.matrix_bytes":                      "server_rss_mb",
	"gss.reverse_index_bytes":               "server_rss_mb",
	"gss.edge_are":                          "edge_are (the HTTP sample) on every workload",
	"server.cpu_us_per_op":                  "every throughput metric of the workload",
	"loadgen.cpu_share":                     "none: shows whether the generator starved the servers",
	"loadgen.late_p99_ms":                   "none: confirms the mixed schedule held",
	"trace.overhead_pct":                    "none: cost of the spans themselves",
	"server.route_mean_us.ingest":           "ingest_p50_ms on the workload",
	"server.route_mean_us.edge":             "edge_p50_us on the workload",
	"server.route_mean_us.neighbors":        "neighbors_p50_us on the workload",
	"server.route_mean_us.scan":             "scan_p50_ms on the workload",
	"http.transport_us.ingest":              "ingest_p50_ms on the workload",
	"http.transport_us.edge":                "edge_p50_us on the workload",
	"http.transport_us.neighbors":           "neighbors_p50_us on the workload",
	"replay.ingest_self_ns_per_item":        "ingest_items_per_s on ingest",
	"cluster.route_mean_us.ingest":          "ingest_p50_ms on routed",
	"cluster.route_mean_us.edge":            "edge_p50_us on routed",
	"cluster.route_mean_us.neighbors":       "neighbors_p50_us on routed",
	"cluster.forward_overhead_us.ingest":    "ingest_p50_ms on routed",
	"cluster.forward_overhead_us.edge":      "edge_p50_us on routed",
	"cluster.forward_overhead_us.neighbors": "neighbors_p50_us on routed",
}

// classRoutes maps a latency class to the server routes that serve it.
var classRoutes = [nClasses][]string{
	cIngest:    {"/ingest"},
	cEdge:      {"/edge"},
	cNeighbors: {"/successors", "/precursors"},
	cReach:     {"/reachable"},
	cScan:      {"/heavy"},
}

// window returns the scrapes bracketing the phase that measured c.
func (r *runner) window(c class) (before, after [][]series) {
	if _, _, phase := pick(r, c); phase == "main" {
		return r.scrapes[0], r.scrapes[1]
	}
	return r.scrapes[2], r.scrapes[3]
}

// meanUs is the mean latency in µs of class c over one process group
// (0 = servers, 1 = router) in the window that measured c.
func (r *runner) meanUs(c class, group int) float64 {
	before, after := r.window(c)
	var sum, n float64
	for _, route := range classRoutes[c] {
		lbl := `{route="` + route + `"}`
		sum += delta(before[group], after[group], "gss_http_request_seconds_sum"+lbl)
		n += delta(before[group], after[group], "gss_http_request_seconds_count"+lbl)
	}
	if n <= 0 {
		return math.NaN()
	}
	return sum / n * 1e6
}

// ingestItems is the item delta over the ingest window, both planes.
func (r *runner) ingestItems() float64 {
	before, after := r.window(cIngest)
	return delta(before[0], after[0], `gss_ingest_items_total{plane="ndjson"}`) +
		delta(before[0], after[0], `gss_ingest_items_total{plane="gsb1"}`)
}

// addLayers builds the per-layer ledger from the replay and the run's
// scrapes.
func (rep *report) addLayers(r *runner, l *layers) {
	per := func(name string, n int64) float64 { return float64(l.self[name]) / float64(max(n, 1)) }
	c := l.c
	gate := func(name string, v float64, unit string) {
		rep.layers = append(rep.layers, metric{Name: name, Value: v, Unit: unit, Phase: "replay", Moves: predictions[name]})
	}
	ledger := func(name string, v float64, unit, phase string) {
		if math.IsNaN(v) { // the route saw no request on this workload
			return
		}
		rep.ledger = append(rep.ledger, metric{Name: name, Value: v, Unit: unit, Phase: phase, Moves: predictions[name]})
	}
	ndjsonDecode := per("stream.ndjson_decode", c.ndjsonN)
	gsb1Decode := per("stream.gsb1_decode", c.gsb1N)
	appendNs := per("oplog.append", c.ndjsonN)
	appendEncNs := per("oplog.append_encoded", c.gsb1N)
	insertNs := per("gss.insert", c.ndjsonN)
	insertHashedNs := per("gss.insert_hashed", c.gsb1N)
	gate("stream.ndjson_decode_ns_per_item", ndjsonDecode, "ns")
	gate("stream.ndjson_allocs_per_item", l.ndjsonAllocs, "count")
	gate("stream.gsb1_decode_ns_per_item", gsb1Decode, "ns")
	gate("stream.gsb1_allocs_per_item", l.gsb1Allocs, "count")
	gate("stream.scan_line_ns", per("stream.scan_line", c.lines), "ns")
	gate("cluster.owner_ns", per("cluster.owner", c.lines), "ns")
	gate("oplog.append_ns_per_item", appendNs, "ns")
	gate("oplog.append_encoded_ns_per_item", appendEncNs, "ns")
	gate("gss.insert_ns_per_item", insertNs, "ns")
	gate("gss.insert_hashed_ns_per_item", insertHashedNs, "ns")
	gate("sketch.contention_ns_per_item", l.contentionNs, "ns")
	gate("gss.heavy_scan_ms", per("gss.heavy_scan", int64(c.scanN))/1e6, "ms")
	gate("gss.edge_ns", per("gss.edge", int64(c.edgeN)), "ns")
	gate("gss.succ_hashes_ns", per("gss.succ_hashes", int64(c.succN)), "ns")
	gate("gss.pred_hashes_ns", per("gss.pred_hashes", int64(c.predN)), "ns")
	gate("gss.expand_ns_per_id", per("gss.expand", c.ids), "ns")
	ids := newDist(c.idsPerQuery)
	gate("gss.ids_per_neighbors_query_p50", ids.quantile(0.50), "count")
	gate("gss.ids_per_neighbors_query_p99", ids.quantile(0.99), "count")
	gate("server.encode_ns_per_id", per("server.encode", c.ids), "ns")
	gate("query.reach_ns", per("query.reach", int64(c.reachN)), "ns")
	gate("query.reach_true_ratio", float64(c.reachTrue)/float64(max(c.reachN, 1)), "ratio")

	// Server-side route means and the client's share on top of them.
	for _, cl := range []class{cIngest, cEdge, cNeighbors, cScan} {
		gate("server.route_mean_us."+classNames[cl], r.meanUs(cl, 0), "us")
	}
	front := 0
	if r.spec.routed {
		front = 1
	}
	for _, cl := range []class{cIngest, cEdge, cNeighbors} {
		t, _, _ := pick(r, cl)
		client := durations(t.lat[cl]).mean() / 1e3
		gate("http.transport_us."+classNames[cl], client-r.meanUs(cl, front), "us")
	}
	// What the server spends per ingested item beyond the stages the
	// replay timed for the plane and durability this workload uses.
	before, after := r.window(cIngest)
	lbl := `{route="/ingest"}`
	serverNsPerItem := delta(before[0], after[0], "gss_http_request_seconds_sum"+lbl) * 1e9 / math.Max(r.ingestItems(), 1)
	stages := ndjsonDecode + insertNs
	if r.name == "mixed" {
		stages = gsb1Decode + insertHashedNs
	}
	if r.spec.durable {
		if r.name == "mixed" {
			stages += appendEncNs
		} else {
			stages += appendNs
		}
	}
	gate("server.unexplained_ns_per_item", serverNsPerItem-stages, "ns")

	end := r.scrapes[3][0]
	gate("gss.matrix_edges", sumOver(end, "gss_sketch_matrix_edges"), "count")
	gate("gss.buffer_edges", sumOver(end, "gss_sketch_buffer_edges"), "count")
	gate("gss.occupancy", sumOver(end, "gss_sketch_occupancy")/float64(len(end)), "ratio")
	gate("gss.matrix_bytes", sumOver(end, "gss_sketch_matrix_bytes"), "bytes")
	gate("gss.reverse_index_bytes", sumOver(end, "gss_sketch_reverse_index_bytes"), "bytes")
	gate("gss.edge_are", l.are, "ratio")
	gate("server.cpu_us_per_op", float64(r.serverCPU.Microseconds())/float64(max(r.main.attempted, 1)), "us")
	gate("loadgen.cpu_share", r.selfCPU.Seconds()/math.Max((r.selfCPU+r.serverCPU).Seconds(), 1e-9), "ratio")
	untraced := (l.untracedWall[0] + l.untracedWall[1]) / 2
	gate("trace.overhead_pct", 100*(l.tracedWall.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")

	ledger("replay.ingest_self_ns_per_item", per("replay.ingest_ndjson", c.ndjsonN), "ns", "replay")
	ledger("replay.neighbors_self_ns", per("replay.neighbors", int64(c.neighborsN)), "ns", "replay")
	for _, cl := range []class{cReach} {
		ledger("server.route_mean_us."+classNames[cl], r.meanUs(cl, 0), "us", "")
	}
	if r.spec.durable {
		b, a := r.scrapes[0][0], r.scrapes[1][0]
		if _, _, phase := pick(r, cIngest); phase == "main" {
			ledger("oplog.syncs_per_s", delta(b, a, "gss_oplog_syncs_total")/r.mainAt.seconds(), "1/s", "main")
			ledger("oplog.bytes_per_item", delta(b, a, "gss_oplog_size_bytes")/
				math.Max(delta(b, a, "gss_oplog_appended_items_total"), 1), "bytes", "main")
		}
	}
	if r.spec.routed {
		for _, cl := range []class{cIngest, cEdge, cNeighbors} {
			rt, member := r.meanUs(cl, 1), r.meanUs(cl, 0)
			ledger("cluster.route_mean_us."+classNames[cl], rt, "us", "main")
			ledger("cluster.forward_overhead_us."+classNames[cl], rt-member, "us", "main")
		}
	}
	rep.spanFile = l.spanFile
}

// sourceDigest is a SHA-256 over the Go sources the binaries are built
// from (the tree is not always a git checkout, so there may be no
// commit to name).
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, de os.DirEntry, err error) error {
			if err == nil && !de.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
