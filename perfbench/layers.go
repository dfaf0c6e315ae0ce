package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gss"
	"repro/internal/oplog"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Replay sizes: the ingest stages replay the first replayBodies bodies;
// the query stages run on a sketch holding the whole stream.
const (
	replayBodies    = 250
	replayEdges     = 5000
	replayNeighbors = 1000
	replayReach     = 200
	replayScans     = 5
	replayBatch     = 512                   // the server's default -batch
	replaySyncEvery = 50 * time.Millisecond // the server's default -log-sync
)

// replayConfig is the sketch a lone gss-server builds at -width 702
// with its other flags at their defaults (Candidates follows -seqlen).
var replayConfig = gss.Config{Width: singleWidth, FingerprintBits: 16, Rooms: 2, SeqLen: 16, Candidates: 16}

// span is one call into a layer. Spans of one replayed request share
// req; parent links a span to the one it ran inside.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a disabled tracer records nothing.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
	req   int32
}

func (t *tracer) newReq() int32 { t.req++; return t.req }

func (t *tracer) begin(name string, req, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its children cover. Children of one span run
// one after another, so their durations add up to the covered part.
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// counts are the units of work a replay pass did, per stage.
type counts struct {
	lines, ids        int64
	reachTrue         int
	idsPerQuery       []int64
	ndjsonN, gsb1N    int64
	edgeN, neighborsN int
	reachN, scanN     int
	succN, predN      int
}

// layerEnv is the state the replay passes share.
type layerEnv struct {
	r        *runner
	full     sketch.Sketch // default backend, whole stream inserted
	hashed   [][]stream.HashedItem
	lines    [][][]byte // NDJSON lines per replayed body
	ring     *cluster.Ring
	edges    [][2]string
	nodes    []string // neighbour-query subjects, drawn from the stream
	pairs    [][2]string
	oplogDir string
}

// replayPass runs every stage once. With tr.on the stages are wrapped
// in spans; otherwise the same calls run bare.
func (e *layerEnv) replayPass(tr *tracer, pass int) (counts, time.Duration, error) {
	var c counts
	d := e.r.d
	skN, err := sketch.New(sketch.BackendConcurrent, replayConfig, sketch.Options{})
	if err != nil {
		return c, 0, err
	}
	skH, err := sketch.New(sketch.BackendConcurrent, replayConfig, sketch.Options{})
	if err != nil {
		return c, 0, err
	}
	logN, err := oplog.Open(oplog.Options{Dir: filepath.Join(e.oplogDir, fmt.Sprintf("ndjson-%d", pass)), SyncEvery: replaySyncEvery})
	if err != nil {
		return c, 0, err
	}
	defer logN.Close()
	logH, err := oplog.Open(oplog.Options{Dir: filepath.Join(e.oplogDir, fmt.Sprintf("gsb1-%d", pass)), SyncEvery: replaySyncEvery})
	if err != nil {
		return c, 0, err
	}
	defer logH.Close()

	start := time.Now()
	// NDJSON ingest requests, as the sync /ingest handler runs them.
	for b := 0; b < replayBodies; b++ {
		req := tr.newReq()
		root := tr.begin("replay.ingest_ndjson", req, -1)
		dec := stream.NewBatchDecoder(bytes.NewReader(d.ndjson[b]), replayBatch)
		dec.SetReuse(true)
		for {
			s := tr.begin("stream.ndjson_decode", req, root)
			batch := dec.Next()
			tr.end(s)
			if batch == nil {
				break
			}
			s = tr.begin("oplog.append", req, root)
			if _, _, err := logN.Append(batch); err != nil {
				return c, 0, err
			}
			tr.end(s)
			s = tr.begin("gss.insert", req, root)
			skN.InsertBatch(batch)
			tr.end(s)
			c.ndjsonN += int64(len(batch))
		}
		if err := dec.Err(); err != nil {
			return c, 0, err
		}
		tr.end(root)
	}
	// GSB1 ingest requests: decode in reuse mode, log the payloads
	// verbatim, insert the carried hashes.
	for b := 0; b < replayBodies; b++ {
		req := tr.newReq()
		root := tr.begin("replay.ingest_gsb1", req, -1)
		dec := stream.NewBinaryBatchDecoder(bytes.NewReader(d.gsb1[b]))
		dec.SetReuse(true)
		for {
			s := tr.begin("stream.gsb1_decode", req, root)
			batch := dec.Next()
			tr.end(s)
			if batch == nil {
				break
			}
			s = tr.begin("oplog.append_encoded", req, root)
			if _, _, err := logH.AppendEncoded(dec.Payloads()); err != nil {
				return c, 0, err
			}
			tr.end(s)
			s = tr.begin("gss.insert_hashed", req, root)
			sketch.InsertHashedBatch(skH, batch)
			tr.end(s)
			c.gsb1N += int64(len(batch))
		}
		if err := dec.Err(); err != nil {
			return c, 0, err
		}
		tr.end(root)
	}
	// The router's per-line work: endpoint scan, then owner pick.
	for b := 0; b < replayBodies; b++ {
		req := tr.newReq()
		s := tr.begin("stream.scan_line", req, -1)
		srcs := make([]string, 0, len(e.lines[b]))
		for _, ln := range e.lines[b] {
			src, _, err := stream.ScanItemLine(ln)
			if err != nil {
				return c, 0, err
			}
			srcs = append(srcs, src)
		}
		tr.end(s)
		s = tr.begin("cluster.owner", req, -1)
		for _, src := range srcs {
			_ = e.ring.Owner(src)
		}
		tr.end(s)
		c.lines += int64(len(srcs))
	}
	// Queries on the full sketch, through its hash plane.
	hq, _ := query.HashView(e.full)
	for _, ed := range e.edges {
		s := tr.begin("gss.edge", tr.newReq(), -1)
		_, _ = hq.EdgeWeightHash(hq.NodeHash(ed[0]), hq.NodeHash(ed[1]))
		tr.end(s)
		c.edgeN++
	}
	var hs []uint64
	var ids []string
	for i, v := range e.nodes {
		succ := i%2 == 0
		req := tr.newReq()
		root := tr.begin("replay.neighbors", req, -1)
		name := "gss.pred_hashes"
		if succ {
			name = "gss.succ_hashes"
		}
		s := tr.begin(name, req, root)
		if succ {
			hs = hq.AppendSuccessorHashes(hq.NodeHash(v), hs[:0])
			c.succN++
		} else {
			hs = hq.AppendPrecursorHashes(hq.NodeHash(v), hs[:0])
			c.predN++
		}
		tr.end(s)
		s = tr.begin("gss.expand", req, root)
		ids = ids[:0]
		for _, h := range hs {
			ids = hq.AppendHashIDs(h, ids)
		}
		tr.end(s)
		s = tr.begin("server.encode", req, root)
		if _, err := json.Marshal(map[string]any{"v": v, "nodes": ids}); err != nil {
			return c, 0, err
		}
		tr.end(s)
		tr.end(root)
		c.ids += int64(len(ids))
		c.idsPerQuery = append(c.idsPerQuery, int64(len(ids)))
		c.neighborsN++
	}
	for _, p := range e.pairs {
		s := tr.begin("query.reach", tr.newReq(), -1)
		ok := query.Reachable(e.full, p[0], p[1])
		tr.end(s)
		if ok {
			c.reachTrue++
		}
		c.reachN++
	}
	for i := 0; i < replayScans; i++ {
		s := tr.begin("gss.heavy_scan", tr.newReq(), -1)
		_ = e.full.HeavyEdges(heavyMin)
		tr.end(s)
		c.scanN++
	}
	return c, time.Since(start), nil
}

// allocsPerItem measures heap allocations per decoded item with the
// decoders in the same mode the sync handler uses.
func (e *layerEnv) allocsPerItem(gsb1 bool) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var n int64
	for b := 0; b < replayBodies; b++ {
		if gsb1 {
			dec := stream.NewBinaryBatchDecoder(bytes.NewReader(e.r.d.gsb1[b]))
			dec.SetReuse(true)
			for batch := dec.Next(); batch != nil; batch = dec.Next() {
				n += int64(len(batch))
			}
		} else {
			dec := stream.NewBatchDecoder(bytes.NewReader(e.r.d.ndjson[b]), replayBatch)
			dec.SetReuse(true)
			for batch := dec.Next(); batch != nil; batch = dec.Next() {
				n += int64(len(batch))
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(max(n, 1))
}

// contention times hashed inserts into a sharded sketch holding the
// whole stream, alone and then while a second goroutine runs the mixed
// read mix and scans against the same sketch; it returns the extra
// ns/item.
func (e *layerEnv) contention() (float64, error) {
	sk, err := sketch.New(sketch.BackendSharded, replayConfig, sketch.Options{Shards: 8}) // the default -shards
	if err != nil {
		return 0, err
	}
	all := stream.HashItems(e.r.d.items, nil)
	for lo := 0; lo < len(all); lo += replayBatch {
		sketch.InsertHashedBatch(sk, all[lo:min(lo+replayBatch, len(all))])
	}
	insert := func() float64 {
		t0 := time.Now()
		var n int
		for _, b := range e.hashed {
			sketch.InsertHashedBatch(sk, b)
			n += len(b)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	alone := insert()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(e.r.seed))
		items := e.r.d.items
		for i := 0; !stop.Load(); i++ {
			it := items[rng.Intn(len(items))]
			switch {
			case i%200 == 199:
				_ = sk.HeavyEdges(heavyMin)
			case i%3 == 2:
				_ = sk.Successors(it.Src)
			default:
				_, _ = sk.EdgeWeight(it.Src, it.Dst)
			}
		}
	}()
	shared := insert()
	stop.Store(true)
	wg.Wait()
	return shared - alone, nil
}

// layers is the outcome of the in-process replay.
type layers struct {
	self         map[string]int64
	c            counts
	tracedWall   time.Duration
	untracedWall []time.Duration
	ndjsonAllocs float64
	gsb1Allocs   float64
	contentionNs float64
	are          float64
	spanFile     string
}

// replayLayers builds the replay inputs from the run's data and runs an
// untraced pass, a traced pass and a second untraced pass. Per-layer
// numbers come from the traced pass's spans; the walls of the three
// give the tracing overhead.
func replayLayers(r *runner) (*layers, error) {
	d := r.d
	e := &layerEnv{r: r, oplogDir: filepath.Join(r.dir, "replay-oplog")}
	full, err := sketch.New(sketch.BackendConcurrent, replayConfig, sketch.Options{})
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(d.items); lo += replayBatch {
		full.InsertBatch(d.items[lo:min(lo+replayBatch, len(d.items))])
	}
	e.full = full
	l := &layers{}
	// Fig. 8 ARE over every distinct edge: exact and seed-determined.
	var are float64
	for _, ed := range d.edges {
		w, _ := full.EdgeWeight(ed[0], ed[1])
		t, _ := d.ref.EdgeWeight(ed[0], ed[1])
		are += float64(w-t) / float64(t)
	}
	l.are = are / float64(len(d.edges))

	for b := 0; b < replayBodies; b++ {
		e.hashed = append(e.hashed, stream.HashItems(d.items[b*bodyItems:b*bodyItems+d.bodyLen(b)], nil))
		var lines [][]byte
		sc := bufio.NewScanner(bytes.NewReader(d.ndjson[b]))
		for sc.Scan() {
			lines = append(lines, bytes.Clone(sc.Bytes()))
		}
		e.lines = append(e.lines, lines)
	}
	if e.ring, err = cluster.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x1a7e))
	for _, j := range pickIndices(r.seed^0x1a7e, len(d.edges), replayEdges) {
		e.edges = append(e.edges, d.edges[j])
	}
	for i := 0; i < replayNeighbors; i++ {
		it := d.items[rng.Intn(len(d.items))]
		if i%2 == 0 {
			e.nodes = append(e.nodes, it.Src)
		} else {
			e.nodes = append(e.nodes, it.Dst)
		}
	}
	for i := 0; i < replayReach; i++ {
		e.pairs = append(e.pairs, [2]string{d.items[rng.Intn(len(d.items))].Src, d.items[rng.Intn(len(d.items))].Dst})
	}
	l.ndjsonAllocs = e.allocsPerItem(false)
	l.gsb1Allocs = e.allocsPerItem(true)

	bare := &tracer{}
	for pass := 0; pass < 3; pass++ {
		tr := bare
		if pass == 1 {
			tr = &tracer{on: true, base: time.Now(), spans: make([]span, 0, 64*1024)}
		}
		c, wall, err := e.replayPass(tr, pass)
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		if !tr.on {
			l.untracedWall = append(l.untracedWall, wall)
			continue
		}
		l.tracedWall, l.c = wall, c
		l.self = tr.selfTimes()
		if l.spanFile, err = writeSpans(r, tr.spans); err != nil {
			return nil, err
		}
	}
	if l.contentionNs, err = e.contention(); err != nil {
		return nil, err
	}
	return l, nil
}

// writeSpans writes the traced pass's spans as JSON lines under
// .bench_build/traces.
func writeSpans(r *runner, spans []span) (string, error) {
	dir := filepath.Join(filepath.Dir(filepath.Dir(r.dir)), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", r.name, r.seed, time.Now().Unix()))
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}
