// Command perfbench is the GSS service benchmark. It drives real
// gss-server and gss-router processes over loopback with load generated
// from a seeded stream, checks every answer against an exact reference,
// and prints the end-to-end metrics of one workload — or, with -trace 1,
// a per-layer ledger from an in-process replay of the same data.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 8 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and the layer predictions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Sizes, rates and flags of every workload. README.md restates them;
// each result records them.
const (
	streamItems   = 1_000_000 // items generated per seed (lkml-reply shape)
	bodyItems     = 500       // items per /ingest request body
	preloadItems  = 50_000    // items per GSB1 request body of the preload
	singleWidth   = 702       // -width of a lone primary: ≈ sqrt(distinct edges)
	memberWidth   = 497       // -width of each routed member: ≈ sqrt(distinct edges / 2)
	routedMembers = 2
	memberPort    = 38561 // loopback port of the first routed member

	mixedRate      = 150 // GSB1 requests per second of the mixed open-loop writer
	mixedScanEvery = 500 * time.Millisecond
	heavyMin       = 1000 // /heavy?min= threshold

	setupStarts    = 41   // cold starts per run; setup_s takes their median
	accEdges       = 2000 // edges in the ARE sample
	accNodes       = 1000 // source nodes in the precision sample
	probeShare     = 0.4  // each probe part lasts this share of the measured phase
	probeScanEvery = 25   // probe-phase reads per /heavy scan

	runTimeout = 170 * time.Second
)

var bgCtx = context.Background()

func nproc() int { return runtime.NumCPU() }

func main() {
	var (
		workload = flag.String("workload", "", "workload: ingest, read, mixed or routed")
		seed     = flag.Int64("seed", 1, "stream seed")
		seconds  = flag.Float64("seconds", 8, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 replays the layers in process and prints the per-layer ledger")
		root     = flag.String("root", ".", "source tree the binaries were built from")
		bin      = flag.String("bin", "", "directory holding gss-server and gss-router")
	)
	flag.Parse()
	debug.SetMemoryLimit(3 << 30)
	if _, ok := specs[*workload]; !ok || *bin == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -workload ingest|read|mixed|routed [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	// Children must not outlive the benchmark: stop them on a signal
	// and when the run overstays its budget. A reader that goes away
	// must not kill the benchmark in a write to standard output or
	// error before it has stopped them, so SIGPIPE is ignored.
	signal.Ignore(syscall.SIGPIPE)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		why := "run exceeded " + runTimeout.String()
		select {
		case s := <-sig:
			why = s.String()
		case <-time.After(runTimeout):
		}
		live.abort()
		fmt.Fprintln(os.Stderr, "perfbench:", why)
		os.Exit(1)
	}()
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *root, *bin); err != nil {
		live.stopAll()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, trace bool, root, bin string) error {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	t0 := time.Now()
	d, err := newDataset(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: dataset %.2fs\n", time.Since(t0).Seconds())
	r, err := newRunner(name, seed, dur, absRoot, bin, d)
	if err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	err = r.run()
	r.stopAll()
	if err != nil {
		return err
	}
	rep := newReport(r)
	if trace {
		l, err := replayLayers(r)
		if err != nil {
			return err
		}
		rep.addLayers(r, l)
	}
	return rep.emit(r, trace, absRoot)
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // behind a percentile
	Fewest  int     `json:"fewest,omitempty"`  // samples in the sparsest round
	Phase   string  `json:"phase,omitempty"`   // main, probe, accuracy, setup, replay
	Moves   string  `json:"moves,omitempty"`   // predicted end-to-end metric and workload
}

type report struct {
	endToEnd          []metric // the gated end-to-end metrics
	ungated           []metric // end-to-end metrics printed and recorded, not gated
	extra             []metric // printed and recorded, not gated
	layers            []metric // per-layer ledger (trace runs only)
	ledger            []metric // per-layer extras (trace runs only)
	attempted, failed int64
	errs              []string
	spanFile          string
}

// pick returns the tally and interval that measured class c: the main
// phase when its load sends c, else the probe phase.
func pick(r *runner, c class) (*tally, interval, string) {
	switch {
	case len(r.main.lat[c]) > 0:
		return &r.main, r.mainAt, "main"
	case c == cIngest:
		return &r.probe, r.probeIngestAt, "probe"
	default:
		return &r.probe, r.probeReadAt, "probe"
	}
}

func newReport(r *runner) *report {
	rep := &report{}
	// The p99s and read_qps are printed and recorded but not gated: on
	// a shared 2-vCPU virtual machine they move with the hypervisor's
	// steal by more than any bound allows. reach_p50_us is not gated
	// either: its level is set by each seed's graph (see README.md).
	add := func(m metric) {
		if strings.HasSuffix(m.Name, "_p99_ms") || strings.HasSuffix(m.Name, "_p99_us") || m.Name == "read_qps" || m.Name == "reach_p50_us" {
			rep.ungated = append(rep.ungated, m)
			return
		}
		rep.endToEnd = append(rep.endToEnd, m)
	}
	pct := func(name string, c class, q, scale float64, unit string) {
		t, iv, phase := pick(r, c)
		v, fewest := roundQuantile(t.lat[c], iv, q)
		add(metric{Name: name, Value: v / scale, Unit: unit, Samples: len(t.lat[c]), Fewest: fewest, Phase: phase})
	}
	add(metric{Name: "setup_s", Value: median(r.startS) + r.preloadS, Unit: "s", Phase: "setup"})
	t, iv, phase := pick(r, cIngest)
	add(metric{Name: "ingest_items_per_s", Value: roundRate(iv, t.lat[cIngest]), Unit: "items/s", Phase: phase})
	pct("ingest_p50_ms", cIngest, 0.50, 1e6, "ms")
	pct("ingest_p99_ms", cIngest, 0.99, 1e6, "ms")
	t, iv, phase = pick(r, cEdge)
	add(metric{Name: "read_qps", Value: roundRate(iv, t.lat[cEdge], t.lat[cNeighbors], t.lat[cReach], t.lat[cScan]),
		Unit: "req/s", Phase: phase})
	pct("edge_p50_us", cEdge, 0.50, 1e3, "us")
	pct("edge_p99_us", cEdge, 0.99, 1e3, "us")
	pct("neighbors_p50_us", cNeighbors, 0.50, 1e3, "us")
	pct("neighbors_p99_us", cNeighbors, 0.99, 1e3, "us")
	pct("reach_p50_us", cReach, 0.50, 1e3, "us")
	pct("reach_p99_us", cReach, 0.99, 1e3, "us")
	pct("scan_p50_ms", cScan, 0.50, 1e6, "ms")

	for _, t := range []*tally{&r.setup, &r.main, &r.acc, &r.probe} {
		rep.attempted += t.attempted
		rep.failed += t.failed
		rep.errs = append(rep.errs, t.errs...)
	}
	add(metric{Name: "ops_ok_ratio", Value: 1 - float64(rep.failed)/float64(max(rep.attempted, 1)), Unit: "ratio"})
	add(metric{Name: "succ_precision", Value: r.precision, Unit: "ratio", Samples: r.precisionN, Phase: "accuracy"})
	add(metric{Name: "server_rss_mb", Value: r.rssMiB, Unit: "MiB"})

	rep.extra = append(rep.extra,
		metric{Name: "ops_failed_ratio", Value: float64(rep.failed) / float64(max(rep.attempted, 1)), Unit: "ratio"},
		metric{Name: "edge_are", Value: r.are, Unit: "ratio", Samples: r.areN, Phase: "accuracy"},
		metric{Name: "setup.start_s", Value: median(r.startS), Unit: "s", Samples: len(r.startS), Phase: "setup"},
		metric{Name: "setup.preload_s", Value: r.preloadS, Unit: "s", Phase: "setup"},
		metric{Name: "main.seconds", Value: r.mainAt.seconds(), Unit: "s", Phase: "main"},
		metric{Name: "host.steal_pct", Value: r.stealPct, Unit: "%", Phase: "main"},
		metric{Name: "host.steal_pct_kept_rounds", Value: keptSteal(r), Unit: "%", Phase: "main"},
		metric{Name: "loadgen.rss_mb", Value: selfRSSMiB(), Unit: "MiB"},
	)
	if len(r.main.late) > 0 {
		d := newDist(r.main.late)
		rep.extra = append(rep.extra, metric{Name: "loadgen.late_p99_ms", Value: d.quantile(0.99) / 1e6, Unit: "ms", Samples: len(d), Phase: "main"})
	}
	return rep
}

// emit prints the report and the final JSON line, and records the full
// result under .bench_build/results.
func (rep *report) emit(r *runner, trace bool, root string) error {
	meta := runMeta(r, root)
	fmt.Printf("perfbench workload=%s seed=%d trace=%v\n", r.name, r.seed, trace)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %v\n", k, meta[k])
	}
	printTable := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Println(title)
		for _, m := range ms {
			n := ""
			if m.Samples > 0 {
				n = fmt.Sprintf("n=%d", m.Samples)
			}
			if m.Fewest > 0 {
				n += fmt.Sprintf("(%d/round)", m.Fewest)
			}
			fmt.Printf("  %-40s %14.6g %-8s %-20s %-9s %s\n", m.Name, m.Value, m.Unit, n, m.Phase, m.Moves)
		}
	}
	printTable("end-to-end (gated):", rep.endToEnd)
	printTable("end-to-end (not gated):", rep.ungated)
	printTable("also measured:", rep.extra)
	printTable("per-layer (gated list):", rep.layers)
	printTable("per-layer (ledger only):", rep.ledger)
	if rep.spanFile != "" {
		fmt.Println("  spans written to", rep.spanFile)
	}
	for _, e := range rep.errs {
		fmt.Println("  failure:", e)
	}

	gated := rep.endToEnd
	if trace {
		gated = rep.layers
	}
	out := map[string]any{}
	for _, m := range gated {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	result := map[string]any{
		"correct": rep.failed == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	}
	record := map[string]any{"meta": meta, "result": result, "end_to_end": rep.endToEnd, "ungated": rep.ungated,
		"extra": rep.extra, "layers": rep.layers, "ledger": rep.ledger, "failures": rep.errs}
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.name, r.seed, btoi(trace), time.Now().Unix()))
	if err := os.WriteFile(file, b, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// keptSteal is the mean stolen share over the measured phase's kept
// rounds.
func keptSteal(r *runner) float64 {
	var sum float64
	n := 0
	for k, share := range r.mainSteal {
		if r.mainAt.kept(k) && !math.IsNaN(share) {
			sum += share
			n++
		}
	}
	return 100 * sum / float64(max(n, 1))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runMeta is what each result records about the run and the machine.
func runMeta(r *runner, root string) map[string]any {
	fs := "none"
	if len(r.logDirs) > 0 {
		fs = fsType(filepath.Dir(r.logDirs[0]))
	}
	return map[string]any{
		"workload": r.name, "seed": r.seed, "why": r.spec.why,
		"source":     sourceDigest(root),
		"go":         runtime.Version(),
		"nproc":      nproc(),
		"gomaxprocs": fmt.Sprintf("loadgen=%d servers=%d (GOMAXPROCS env)", runtime.GOMAXPROCS(0), nproc()),
		"oplog_fs":   fs,
		"processes":  strings.Join(r.cmdlines, " | "),
		"sizes": fmt.Sprintf("stream=lkml-reply items=%d nodes=%d distinct_edges=%d body_items=%d width=%d member_width=%d members=%d",
			streamItems, streamConfig(r.seed).Nodes, len(r.d.edges), bodyItems, singleWidth, memberWidth, routedMembers),
		"rates": fmt.Sprintf("seconds=%.3g clients=2 mixed_rate=%d req/s mixed_scan_every=%v heavy_min=%d",
			r.dur.Seconds(), mixedRate, mixedScanEvery, heavyMin),
		"probe": fmt.Sprintf("classes=%v seconds_per_part=%.3g scan_every=%d acc_edges=%d acc_nodes=%d setup_starts=%d rounds=%d hub_draws=1/%d",
			probeClassNames(r.spec.probe), r.dur.Seconds()*probeShare, probeScanEvery, accEdges, accNodes, setupStarts, rounds, readHubEvery),
	}
}

func probeClassNames(cs []class) []string {
	var out []string
	for _, c := range cs {
		out = append(out, classNames[c])
	}
	return out
}
