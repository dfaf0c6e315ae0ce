package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// spec describes one workload: the processes it starts, the load of its
// measured phase, and the classes its main load does not send, which a
// trailing probe phase measures so every workload reports every metric.
type spec struct {
	why     string
	backend string // "" leaves -backend at the server default
	durable bool   // -log-dir on the primary
	routed  bool   // gss-router in front of routedMembers members
	preload bool   // one ordered GSB1 producer fills the sketch during setup
	main    func(r *runner, end time.Time) []*tally
	probe   []class
}

var specs = map[string]spec{
	"ingest": {
		why:     "2 closed-loop NDJSON producers into one durable primary; decode, oplog append and matrix insert do the work",
		durable: true,
		main:    ingestMain,
		probe:   []class{cEdge, cNeighbors, cReach, cScan},
	},
	"read": {
		why:     "preloaded primary, 2 closed-loop readers of /edge, /successors, /precursors and /reachable; row walk, reverse index, ID expansion, encode and BFS do the work",
		preload: true,
		main:    readMain,
		probe:   []class{cIngest, cScan},
	},
	"mixed": {
		why:     "durable sharded primary, preloaded; open-loop GSB1 writer plus a closed-loop reader with periodic /heavy scans, sharing one matrix",
		backend: "sharded",
		durable: true,
		preload: true,
		main:    mixedMain,
		probe:   []class{cReach},
	},
	"routed": {
		why:     "gss-router in front of 2 members, preloaded; one NDJSON producer and one /edge+/successors reader, both through the router",
		routed:  true,
		preload: true,
		main:    routedMain,
		probe:   []class{cReach, cScan},
	},
}

// runner holds one run's state.
type runner struct {
	name string
	spec spec
	seed int64
	dur  time.Duration
	dir  string // working directory of this run
	bin  string // directory holding the built binaries
	d    *dataset

	procs   []*proc // every live child, router last
	servers []*proc // the gss-server processes
	front   *proc   // the process clients talk to

	acks   []int64 // per body: times acknowledged after setup
	ackMu  sync.Mutex
	cursor atomic.Int64 // next body a producer sends, modulo the body count

	startS   []float64 // exec → /healthz, per cold start
	preloadS float64
	setup    tally

	main, acc, probe   tally
	mainAt             interval
	probeIngestAt      interval
	probeReadAt        interval
	are, precision     float64
	areN, precisionN   int
	serverCPU, selfCPU time.Duration // servers and router, and the generator, over the measured phase
	rssMiB             float64
	stealPct           float64         // CPU stolen by the hypervisor during the measured phase
	mainSteal          [rounds]float64 // stolen share in each round of the measured phase
	scrapes            [4][][]series   // [after setup, after main, after accuracy, end][server, router]
	logDirs            []string
	cmdlines           []string
}

func (r *runner) ack(b int) {
	r.ackMu.Lock()
	r.acks[b]++
	r.ackMu.Unlock()
}

// fullPasses counts the whole stream passes in the sketch: the preload
// and the passes every body has been acknowledged since. A true edge that
// reaches heavyMin in one pass weighs at least heavyMin times this, so a
// /heavy scan at that threshold returns about the same edges however much
// a workload has ingested, and its time does not grow with throughput.
func (r *runner) fullPasses() int64 {
	passes := slices.Min(r.ackSnapshot())
	if r.spec.preload {
		passes++
	}
	return max(passes, 1)
}

// ackSnapshot copies the per-body acknowledgement counts.
func (r *runner) ackSnapshot() []int64 {
	r.ackMu.Lock()
	defer r.ackMu.Unlock()
	return append([]int64(nil), r.acks...)
}

// startAll starts the workload's processes and waits until each answers
// /healthz; it returns the elapsed time from the first exec.
func (r *runner) startAll(attempt int) (time.Duration, error) {
	t0 := time.Now()
	deadline := t0.Add(30 * time.Second)
	server := filepath.Join(r.bin, "gss-server")
	if !r.spec.routed {
		args := []string{"-width", fmt.Sprint(singleWidth)}
		if r.spec.backend != "" {
			args = append(args, "-backend", r.spec.backend)
		}
		if r.spec.durable {
			dir := filepath.Join(r.dir, fmt.Sprintf("oplog-%d", attempt))
			r.logDirs = append(r.logDirs, dir)
			args = append(args, "-log-dir", dir)
		}
		p, err := startProc(r.dir, server, "gss-server", 0, args)
		if err != nil {
			return 0, err
		}
		r.procs, r.servers, r.front = []*proc{p}, []*proc{p}, p
	} else {
		r.procs, r.servers = nil, nil
		var urls []string
		for i := 0; i < routedMembers; i++ {
			// The ring seeds its partition with the member URLs, so
			// fixed ports make a seed partition the graph the same way
			// on every run.
			p, err := startProc(r.dir, server, fmt.Sprintf("member%d", i), memberPort+i,
				[]string{"-width", fmt.Sprint(memberWidth)})
			if err != nil {
				return 0, err
			}
			r.procs = append(r.procs, p)
			r.servers = append(r.servers, p)
			urls = append(urls, p.url)
		}
		live.set(r.procs)
		// The router marks a member that misses its first probe down
		// for a whole probe interval, so members must answer first.
		for _, p := range r.procs {
			if err := p.waitHealthy(deadline); err != nil {
				return 0, err
			}
		}
		p, err := startProc(r.dir, filepath.Join(r.bin, "gss-router"), "gss-router", 0,
			[]string{"-member", strings.Join(urls, ",")})
		if err != nil {
			return 0, err
		}
		r.procs = append(r.procs, p)
		r.front = p
	}
	live.set(r.procs)
	r.cmdlines = r.cmdlines[:0]
	for _, p := range r.procs {
		r.cmdlines = append(r.cmdlines, p.name+" "+strings.Join(p.args, " "))
	}
	for _, p := range r.procs {
		if err := p.waitHealthy(deadline); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (r *runner) stopAll() {
	for i := len(r.procs) - 1; i >= 0; i-- {
		r.procs[i].stop()
	}
	r.procs = nil
	live.set(nil)
}

// setupPhase cold-starts the process set setupStarts times, keeping the
// last, and preloads it with one ordered GSB1 producer.
func (r *runner) setupPhase() error {
	var err error
	// The generator's collector, with the dataset just built, would
	// otherwise compete with the starting processes for the CPUs.
	quiet(func() {
		for i := 0; i < setupStarts; i++ {
			var dt time.Duration
			if dt, err = r.startAll(i); err != nil {
				return
			}
			r.startS = append(r.startS, dt.Seconds())
			if i < setupStarts-1 {
				r.stopAll()
			}
		}
	})
	if err != nil {
		return err
	}
	if !r.spec.preload {
		return nil
	}
	ck := newChecker(r.d, r.front.url, loadClient)
	t0 := time.Now()
	for lo := 0; lo < len(r.d.items); lo += preloadItems {
		body, err := gsb1Body(r.d.items[lo:min(lo+preloadItems, len(r.d.items))])
		if err != nil {
			return err
		}
		due := time.Now()
		n := min(preloadItems, len(r.d.items)-lo)
		r.setup.recordN(cIngest, due, ck.ingest(body, true, n), n)
	}
	r.preloadS = time.Since(t0).Seconds()
	return nil
}

// scrapeAll scrapes the servers and, when routed, the router.
func (r *runner) scrapeAll() ([][]series, error) {
	var srv, rtr []series
	for _, p := range r.procs {
		s, err := scrape(bgCtx, p)
		if err != nil {
			return nil, err
		}
		if p == r.front && r.spec.routed {
			rtr = append(rtr, s)
		} else {
			srv = append(srv, s)
		}
	}
	return [][]series{srv, rtr}, nil
}

// nextBody hands producers bodies in order, cycling.
func (r *runner) nextBody() (b int, lap int64) {
	n := r.cursor.Add(1) - 1
	return int(n % int64(len(r.d.ndjson))), n / int64(len(r.d.ndjson))
}

// produce is a closed-loop producer: it sends bodies until end. Without
// a preload it goes on until every body has been sent once, so the
// exact reference bounds every edge from below.
func (r *runner) produce(t *tally, ck *checker, binary bool, end time.Time) {
	for {
		b, lap := r.nextBody()
		if (lap > 0 || r.spec.preload) && !time.Now().Before(end) {
			return
		}
		body := r.d.ndjson[b]
		if binary {
			body = r.d.gsb1[b]
		}
		due := time.Now()
		err := ck.ingest(body, binary, r.d.bodyLen(b))
		t.recordN(cIngest, due, err, r.d.bodyLen(b))
		if err == nil {
			r.ack(b)
		}
	}
}

// readOne sends one read of class c, its subjects drawn with rng.
//
// With byDegree the subjects are endpoints of random stream items, so a
// node is queried in proportion to its degree, hubs included; a
// /reachable pair joins the source of one item to the destination of
// another. Otherwise subjects are drawn uniformly over the distinct
// edges and nodes, and a /reachable pair is one hop apart: on this dense
// graph almost every pair is connected, and a BFS that reaches a hub
// expands tens of thousands of nodes (the router's BFS sends one member
// request per frontier node).
func (r *runner) readOne(t *tally, ck *checker, rng *rand.Rand, c class, byDegree bool) {
	d := r.d
	var src, dst string
	if byDegree {
		it := d.items[rng.Intn(len(d.items))]
		src, dst = it.Src, it.Dst
		if c == cReach {
			dst = d.items[rng.Intn(len(d.items))].Dst
		}
	} else {
		switch c {
		case cEdge:
			e := d.edges[rng.Intn(len(d.edges))]
			src, dst = e[0], e[1]
		case cNeighbors:
			src, dst = d.srcs[rng.Intn(len(d.srcs))], d.dsts[rng.Intn(len(d.dsts))]
		case cReach:
			src = d.srcs[rng.Intn(len(d.srcs))]
			ord, _ := nodeOrd(src)
			succ := d.succ[ord]
			dst = stream.NodeID(int(succ[rng.Intn(len(succ))]))
		}
	}
	var passes int64
	if c == cScan {
		passes = r.fullPasses()
	}
	due := time.Now()
	var err error
	switch c {
	case cEdge:
		_, err = ck.edge(src, dst, ck.refWeight(src, dst))
	case cNeighbors:
		if rng.Intn(2) == 0 {
			_, err = ck.neighbors(src, true)
		} else {
			_, err = ck.neighbors(dst, false)
		}
	case cReach:
		_, err = ck.reach(src, dst)
	case cScan:
		err = ck.scan(passes)
	}
	t.record(c, due, err)
}

// parallel runs fn on n goroutines with their own tallies and returns
// the tallies once all have finished.
func parallel(n int, fn func(i int, t *tally)) []*tally {
	ts := make([]*tally, n)
	var wg sync.WaitGroup
	for i := range ts {
		ts[i] = &tally{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, ts[i])
		}(i)
	}
	wg.Wait()
	return ts
}

func ingestMain(r *runner, end time.Time) []*tally {
	return parallel(2, func(_ int, t *tally) {
		r.produce(t, newChecker(r.d, r.front.url, loadClient), false, end)
	})
}

// readHubEvery: one read in this many draws its subjects by degree,
// which puts the hubs in the read workload's tail; the rest draw
// uniformly, so the medians do not hinge on which nodes a seed made
// hubs.
const readHubEvery = 10

// readMix is the read workload's fixed mix, in tenths.
var readMix = []class{cEdge, cEdge, cEdge, cEdge, cNeighbors, cNeighbors, cNeighbors, cReach, cReach, cReach}

func readMain(r *runner, end time.Time) []*tally {
	return parallel(2, func(i int, t *tally) {
		ck := newChecker(r.d, r.front.url, loadClient)
		rng := rand.New(rand.NewSource(r.seed*31 + int64(i)))
		for time.Now().Before(end) {
			r.readOne(t, ck, rng, readMix[rng.Intn(len(readMix))], rng.Intn(readHubEvery) == 0)
		}
	})
}

func mixedMain(r *runner, end time.Time) []*tally {
	start := time.Now()
	return parallel(2, func(i int, t *tally) {
		ck := newChecker(r.d, r.front.url, loadClient)
		if i == 0 {
			// Open loop: request k is due at start + k/mixedRate and is
			// timed from then, so a stall shows as latency of every
			// request behind it rather than as a lower send rate.
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * time.Second / mixedRate)
				if !due.Before(end) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				t.late = append(t.late, int64(time.Since(due)))
				b, _ := r.nextBody()
				err := ck.ingest(r.d.gsb1[b], true, r.d.bodyLen(b))
				t.recordN(cIngest, due, err, r.d.bodyLen(b))
				if err == nil {
					r.ack(b)
				}
			}
		}
		rng := rand.New(rand.NewSource(r.seed*31 + int64(i)))
		nextScan := start.Add(mixedScanEvery)
		for time.Now().Before(end) {
			if !time.Now().Before(nextScan) {
				r.readOne(t, ck, rng, cScan, false)
				nextScan = nextScan.Add(mixedScanEvery)
				continue
			}
			r.readOne(t, ck, rng, []class{cEdge, cNeighbors}[rng.Intn(2)], false)
		}
	})
}

func routedMain(r *runner, end time.Time) []*tally {
	return parallel(2, func(i int, t *tally) {
		ck := newChecker(r.d, r.front.url, loadClient)
		if i == 0 {
			r.produce(t, ck, false, end)
			return
		}
		rng := rand.New(rand.NewSource(r.seed*31 + int64(i)))
		for time.Now().Before(end) {
			// The router serves /successors by key and /precursors by
			// scatter; this reader asks only for the former.
			if rng.Intn(2) == 0 {
				r.readOne(t, ck, rng, cEdge, false)
				continue
			}
			v := r.d.srcs[rng.Intn(len(r.d.srcs))]
			due := time.Now()
			_, err := ck.neighbors(v, true)
			t.record(cNeighbors, due, err)
		}
	})
}

// accuracy measures, untimed, the paper's ARE (Fig. 8) over a fixed
// seeded sample of true edges and successor precision (Fig. 10) over a
// fixed seeded sample of source nodes.
func (r *runner) accuracy() {
	ck := newChecker(r.d, r.front.url, loadClient)
	t := &r.acc
	idx := pickIndices(r.seed^0x5eed, len(r.d.edges), accEdges)
	edges := make([][2]string, len(idx))
	for i, j := range idx {
		edges[i] = r.d.edges[j]
	}
	truth := r.d.finalWeights(edges, r.spec.preload, r.ackSnapshot())
	var sum float64
	for i, e := range edges {
		due := time.Now()
		w, err := ck.edge(e[0], e[1], truth[i])
		t.record(cEdge, due, err)
		if err == nil {
			sum += float64(w-truth[i]) / float64(truth[i])
			r.areN++
		}
	}
	r.are = sum / float64(max(r.areN, 1))
	sum = 0
	for _, j := range pickIndices(r.seed^0x50cc, len(r.d.srcs), accNodes) {
		v := r.d.srcs[j]
		due := time.Now()
		n, err := ck.neighbors(v, true)
		t.record(cNeighbors, due, err)
		if err == nil {
			sum += float64(r.d.ref.OutDegree(v)) / float64(max(n, 1))
			r.precisionN++
		}
	}
	r.precision = sum / float64(max(r.precisionN, 1))
}

// probePhase measures, with one closed-loop client, the classes the
// main load does not send: ingest first, then the read classes in turn
// with one scan per probeScanEvery of them. Each part runs for
// probeShare of the measured phase's length.
func (r *runner) probePhase() {
	ck := newChecker(r.d, r.front.url, loadClient)
	t := &r.probe
	want := map[class]bool{}
	for _, c := range r.spec.probe {
		want[c] = true
	}
	length := time.Duration(float64(r.dur) * probeShare)
	if want[cIngest] {
		r.probeIngestAt.from = time.Now()
		for end := r.probeIngestAt.from.Add(length); time.Now().Before(end); {
			b, _ := r.nextBody()
			due := time.Now()
			err := ck.ingest(r.d.ndjson[b], false, r.d.bodyLen(b))
			t.recordN(cIngest, due, err, r.d.bodyLen(b))
			if err == nil {
				r.ack(b)
			}
		}
		r.probeIngestAt.to = time.Now()
	}
	var reads []class
	for _, c := range []class{cEdge, cNeighbors, cReach} {
		if want[c] {
			reads = append(reads, c)
		}
	}
	if len(reads) == 0 && !want[cScan] {
		return
	}
	rng := rand.New(rand.NewSource(r.seed*31 + 7))
	r.probeReadAt.from = time.Now()
	for k, end := 0, r.probeReadAt.from.Add(length); time.Now().Before(end); k++ {
		if want[cScan] && (len(reads) == 0 || k%probeScanEvery == 0) {
			r.readOne(t, ck, rng, cScan, false)
		}
		for _, c := range reads {
			r.readOne(t, ck, rng, c, false)
		}
	}
	r.probeReadAt.to = time.Now()
}

// run executes setup, the measured phase, the accuracy queries and the
// probe phase, scraping /metrics between them.
func (r *runner) run() error {
	r.acks = make([]int64, len(r.d.ndjson))
	phase := time.Now()
	lap := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s %.2fs\n", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	if err := r.setupPhase(); err != nil {
		return err
	}
	lap("setup")
	var err error
	if r.scrapes[0], err = r.scrapeAll(); err != nil {
		return err
	}
	steal := startStealLog()
	defer steal.close()
	steal0, total0 := hostCPU()
	cpu0, self0 := cpuOf(r.procs), selfCPU()
	quiet(func() {
		r.mainAt.from = time.Now()
		for _, t := range r.spec.main(r, r.mainAt.from.Add(r.dur)) {
			r.main.merge(t)
		}
		r.mainAt.to = time.Now()
	})
	r.serverCPU, r.selfCPU = cpuOf(r.procs)-cpu0, selfCPU()-self0
	steal1, total1 := hostCPU()
	r.stealPct = 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	r.mainSteal = steal.keepQuiet(&r.mainAt)
	if r.scrapes[1], err = r.scrapeAll(); err != nil {
		return err
	}
	lap("main")
	r.accuracy()
	lap("accuracy")
	if r.scrapes[2], err = r.scrapeAll(); err != nil {
		return err
	}
	quiet(r.probePhase)
	lap("probe")
	steal.keepQuiet(&r.probeIngestAt)
	steal.keepQuiet(&r.probeReadAt)
	if r.scrapes[3], err = r.scrapeAll(); err != nil {
		return err
	}
	r.rssMiB, err = peakRSSMiB(r.procs)
	return err
}

// quiet runs a timed phase with the generator's garbage collector held
// off: the reference data make its heap large, and a collection in the
// middle of a phase would take CPU from the servers at a random moment.
// The memory limit still forces a collection should the heap grow past
// it.
func quiet(phase func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	phase()
}

// newRunner prepares a run's working directory.
func newRunner(name string, seed int64, dur time.Duration, root, bin string, d *dataset) (*runner, error) {
	dir := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create run directory: %w", err)
	}
	live.mu.Lock()
	live.dir = dir
	live.mu.Unlock()
	return &runner{name: name, spec: specs[name], seed: seed, dur: dur, dir: dir, bin: bin, d: d}, nil
}

// liveProcs tracks the children alive right now, so the watchdog and
// signal handler can stop them from another goroutine.
type liveProcs struct {
	mu    sync.Mutex
	procs []*proc
	dir   string // the run directory, removed by abort
}

func (l *liveProcs) set(ps []*proc) {
	l.mu.Lock()
	l.procs = append([]*proc(nil), ps...)
	l.mu.Unlock()
}

func (l *liveProcs) stopAll() {
	l.mu.Lock()
	ps := l.procs
	l.procs = nil
	l.mu.Unlock()
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// abort stops the children and removes the run directory, for a run
// that ends without returning from run.
func (l *liveProcs) abort() {
	l.stopAll()
	l.mu.Lock()
	dir := l.dir
	l.mu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}

var live liveProcs

// loadClient carries all generated load: at most nproc connections, one
// per client goroutine. ctlClient carries health checks and scrapes.
var (
	loadClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(), DisableCompression: true}}
	ctlClient = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
)
