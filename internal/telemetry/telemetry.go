// Package telemetry is the repo's zero-dependency metrics plane: a
// registry of atomic counters, gauges and fixed-bucket histograms with
// Prometheus text exposition (served at GET /metrics by both
// gss-server and gss-router), plus the request-tracing, slow-query
// logging and pprof plumbing the HTTP tier shares.
//
// The design splits registration from observation so the hot path
// stays lock-free: instrumentation sites call Registry.Counter /
// Gauge / Histogram ONCE at wiring time (the registry takes a mutex
// there) and keep the returned handle; every subsequent Inc / Add /
// Observe is a plain atomic operation with no map lookup and no lock.
// On-demand values — sketch occupancy, oplog sequences, follower lag —
// register as GaugeFunc / CounterFunc closures evaluated only when a
// scrape happens, so idle metrics cost nothing.
//
// All handles are safe for concurrent use, and the zero value of
// Counter and Gauge is usable standalone (no registry) — packages like
// internal/faultproxy use them as documented-memory-order counters
// without exporting anything.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use. Value loads with the same acquire semantics the atomic
// package documents, so a test that reads a counter another goroutine
// bumped observes a consistent value without extra synchronization.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotonic; callers must not pass negative n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency histogram bounds in seconds:
// half a millisecond to ten seconds, roughly exponential — wide enough
// for an in-memory sketch read (tens of µs land in the first bucket)
// and a retried cross-member scatter (seconds land in the last ones).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are chosen
// at registration and never change, so Observe is a linear scan over a
// small array plus two atomics — no locks, no allocation. The count is
// not kept separately: it is the sum of the bucket counts, so a render
// that derives +Inf and _count from one pass over the buckets can never
// tear them apart. _sum is a separate atomic and may lag _count by the
// observations in flight.
type Histogram struct {
	bounds []float64      // upper bounds, ascending
	counts []atomic.Int64 // one per bound, plus the +Inf overflow bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile returns an estimate of the q-quantile (0 < q < 1) from the
// bucket counts: the upper bound of the bucket the quantile falls in,
// or the largest finite bound when it falls in the +Inf bucket. Used
// by the slow-query plumbing and tests; scrapers compute quantiles
// from the exposed buckets instead.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return b
		}
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Label is one name="value" pair on a metric series. Series under a
// family must all carry the same label names in the same order.
type Label struct{ Name, Value string }

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family: exactly one of the value
// fields is set.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	cfn    func() int64
	gfn    func() float64
	h      *Histogram
}

// family is all the series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	labelNames []string

	mu     sync.Mutex
	series []*series
	index  map[string]*series // keyed by the joined label values
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration takes the registry lock;
// observation through the returned handles does not.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Value)
		sb.WriteByte('\xff')
	}
	return sb.String()
}

// family returns (creating if needed) the family for name, checking
// that kind and label names match any earlier registration. Metric
// and label names are wiring-time constants, so a mismatch is a
// programming error and panics rather than limping along with a
// family that cannot expose coherently.
func (r *Registry) family(name, help string, kind metricKind, labels []Label) *family {
	names := make([]string, len(labels))
	for i, l := range labels {
		names[i] = l.Name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labelNames: names,
			index: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, now requested as %s", name, f.kind, kind))
	}
	if len(f.labelNames) != len(names) {
		panic(fmt.Sprintf("telemetry: %s registered with labels %v, now requested with %v", name, f.labelNames, names))
	}
	for i := range names {
		if f.labelNames[i] != names[i] {
			panic(fmt.Sprintf("telemetry: %s registered with labels %v, now requested with %v", name, f.labelNames, names))
		}
	}
	return f
}

// lookupOrAdd returns the existing series for the label values, or
// installs one built by mk. Registration is idempotent: asking for the
// same (name, label values) twice returns the same handle, so a
// rebuilt handler or a re-added cluster member keeps its counts.
func (f *family) lookupOrAdd(labels []Label, mk func() *series) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.index[key]; ok {
		return s
	}
	s := mk()
	f.index[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, kindCounter, labels)
	s := f.lookupOrAdd(labels, func() *series {
		return &series{labels: labels, c: &Counter{}}
	})
	if s.c == nil {
		panic(fmt.Sprintf("telemetry: %s%v registered as a counter func, now requested as a counter", name, labels))
	}
	return s.c
}

// CounterFunc registers a counter whose value is computed at scrape
// time — the bridge for monotonic counts that already live in another
// subsystem's stats (oplog appends, pipeline drops) without moving
// them. Re-registering the same series replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	f := r.family(name, help, kindCounter, labels)
	s := f.lookupOrAdd(labels, func() *series {
		return &series{labels: labels}
	})
	f.mu.Lock()
	s.cfn = fn
	f.mu.Unlock()
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, kindGauge, labels)
	s := f.lookupOrAdd(labels, func() *series {
		return &series{labels: labels, g: &Gauge{}}
	})
	if s.g == nil {
		panic(fmt.Sprintf("telemetry: %s%v registered as a gauge func, now requested as a gauge", name, labels))
	}
	return s.g
}

// GaugeFunc registers a gauge computed at scrape time. Re-registering
// the same series replaces the function — a follower that reconnects
// re-points the lag gauge at its new stats without leaking the old
// closure.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, kindGauge, labels)
	s := f.lookupOrAdd(labels, func() *series {
		return &series{labels: labels}
	})
	f.mu.Lock()
	s.gfn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns the existing) histogram series.
// bounds are ascending upper bucket bounds in the observed unit
// (seconds for latencies); nil means DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: %s histogram bounds not ascending: %v", name, bounds))
		}
	}
	f := r.family(name, help, kindHistogram, labels)
	s := f.lookupOrAdd(labels, func() *series {
		return &series{labels: labels, h: &Histogram{
			bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}}
	})
	return s.h
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatLabels renders {a="x",b="y"}, with extra appended after the
// series labels (histogram "le").
func formatLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatValue renders a sample value the way Prometheus expects:
// integers without an exponent, floats with full precision.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Write renders the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and series by label
// values, so two scrapes of identical state are byte-identical.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		// Snapshot the series — including the func pointers, which
		// re-registration may swap under f.mu — so the render loop never
		// reads a field another goroutine is writing.
		f.mu.Lock()
		series := make([]series, len(f.series))
		for i, s := range f.series {
			series[i] = *s
		}
		f.mu.Unlock()
		sort.Slice(series, func(i, j int) bool {
			return labelKey(series[i].labels) < labelKey(series[j].labels)
		})
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range series {
			switch {
			case s.h != nil:
				// +Inf and _count come from the same bucket reads.
				var cum int64
				for i, b := range s.h.bounds {
					cum += s.h.counts[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
						formatLabels(s.labels, L("le", formatValue(b))), cum)
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
					formatLabels(s.labels, L("le", "+Inf")), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name,
					formatLabels(s.labels), formatValue(s.h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name,
					formatLabels(s.labels), cum)
			case s.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, formatLabels(s.labels), s.c.Value())
			case s.g != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, formatLabels(s.labels), s.g.Value())
			case s.cfn != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, formatLabels(s.labels), s.cfn())
			case s.gfn != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, formatLabels(s.labels), formatValue(s.gfn()))
			}
		}
	}
	return bw.Flush()
}

// Families returns the sorted registered family names (for golden
// tests that pin the metric set).
func (r *Registry) Families() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Handler serves the exposition at GET (or HEAD) /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Write(w)
	})
}
