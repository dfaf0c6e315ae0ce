package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// series maps a sample's full name, labels included, to its value:
// `gss_http_request_seconds_sum{route="/edge"}` → 1.25.
//
// Only histogram _sum/_count lines, counters (_total) and gauges are
// kept; _bucket lines are dropped. Under concurrent observation the
// server's histogram render can publish buckets that disagree with its
// own _count (the cumulative bucket sum can exceed the +Inf bucket), so
// nothing here may depend on buckets. Means come from _sum/_count
// deltas, which stay consistent up to observations still in flight.
type series map[string]float64

// parseExposition reads Prometheus text exposition.
func parseExposition(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last space-separated field; label values
		// may hold spaces, so split from the right.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		name, raw := line[:i], line[i+1:]
		base := name
		if j := strings.IndexByte(name, '{'); j >= 0 {
			base = name[:j]
		}
		if strings.HasSuffix(base, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// sumOver adds the sample named name across several scrapes (one per
// process).
func sumOver(ss []series, name string) float64 {
	var v float64
	for _, s := range ss {
		v += s[name]
	}
	return v
}

// delta is after-before of one sample summed over processes.
func delta(before, after []series, name string) float64 {
	return sumOver(after, name) - sumOver(before, name)
}

// dist is a sorted set of latencies in nanoseconds.
type dist []int64

func newDist(xs []int64) dist {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// durations is the latency distribution of ss.
func durations(ss []sample) dist {
	d := make(dist, len(ss))
	for i, s := range ss {
		d[i] = s.dur
	}
	slices.Sort(d)
	return d
}

// quantile is the nearest-rank q-quantile.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	i = max(0, min(i, len(d)-1))
	return float64(d[i])
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range d {
		s += float64(x)
	}
	return s / float64(len(d))
}

// interval is the span of a phase. keep marks the rounds the phase's
// metrics are computed from; with none marked, all rounds count.
type interval struct {
	from, to time.Time
	keep     [rounds]bool
}

// kept reports whether round k counts.
func (iv interval) kept(k int) bool {
	return iv.keep[k] || iv.keep == [rounds]bool{}
}

func (iv interval) seconds() float64 { return iv.to.Sub(iv.from).Seconds() }

// rounds splits a phase into this many equal slices of time. A metric
// is computed per slice and reported as the median over the kept slices:
// the half of them in which the hypervisor stole the least CPU (see
// stealLog), so host interference that hits some slices does not move
// the result.
const rounds = 10

// splitRounds groups samples by the slice of iv they were due in.
func splitRounds(ss []sample, iv interval) [rounds][]sample {
	var out [rounds][]sample
	from, span := iv.from.UnixNano(), iv.to.Sub(iv.from).Nanoseconds()
	for _, s := range ss {
		k := int((s.due - from) * rounds / max(span, 1))
		out[max(0, min(k, rounds-1))] = append(out[max(0, min(k, rounds-1))], s)
	}
	return out
}

// roundQuantile is the median over rounds of each round's q-quantile;
// it also returns the fewest samples any round held.
func roundQuantile(ss []sample, iv interval, q float64) (float64, int) {
	var vals []float64
	fewest := math.MaxInt
	for k, r := range splitRounds(ss, iv) {
		if !iv.kept(k) {
			continue
		}
		fewest = min(fewest, len(r))
		if len(r) > 0 {
			vals = append(vals, durations(r).quantile(q))
		}
	}
	return median(vals), fewest
}

// roundRate is the median over rounds of each round's completed units
// (items, or requests across classes) per second.
func roundRate(iv interval, classes ...[]sample) float64 {
	var per [rounds]int64
	for _, ss := range classes {
		for k, r := range splitRounds(ss, iv) {
			for _, s := range r {
				per[k] += s.n
			}
		}
	}
	secs := iv.seconds() / rounds
	var vals []float64
	for k, n := range per {
		if iv.kept(k) {
			vals = append(vals, float64(n)/secs)
		}
	}
	return median(vals)
}

// median of a small float slice; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stealLog samples the host's stolen CPU share while the phases run.
type stealLog struct {
	mu      sync.Mutex
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

type stealSample struct {
	at           time.Time
	steal, total int64
}

// startStealLog samples /proc/stat every stealEvery until stopped.
func startStealLog() *stealLog {
	l := &stealLog{stop: make(chan struct{}), done: make(chan struct{})}
	l.sample()
	go func() {
		defer close(l.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
				l.sample()
			}
		}
	}()
	return l
}

const stealEvery = 50 * time.Millisecond

func (l *stealLog) sample() {
	steal, total := hostCPU()
	l.mu.Lock()
	l.samples = append(l.samples, stealSample{time.Now(), steal, total})
	l.mu.Unlock()
}

// close stops the sampler and waits for it.
func (l *stealLog) close() {
	close(l.stop)
	<-l.done
}

// share is the stolen fraction of host CPU between from and to, taken
// from the samples that bracket the span (NaN when none do).
func (l *stealLog) share(from, to time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var a, b *stealSample
	for i := range l.samples {
		s := &l.samples[i]
		if !s.at.After(from) {
			a = s
		}
		if b == nil && !s.at.Before(to) {
			b = s
		}
	}
	if a == nil || b == nil || b.total <= a.total {
		return math.NaN()
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// keepQuiet marks the half of iv's rounds with the least stolen CPU and
// returns the stolen share of every round.
func (l *stealLog) keepQuiet(iv *interval) [rounds]float64 {
	var share [rounds]float64
	order := make([]int, rounds)
	span := iv.to.Sub(iv.from) / rounds
	for k := range share {
		from := iv.from.Add(time.Duration(k) * span)
		share[k] = l.share(from, from.Add(span))
		order[k] = k
	}
	// Rounds whose share is unknown sort last and are kept only to fill
	// the half.
	slices.SortStableFunc(order, func(i, j int) int {
		si, sj := share[i], share[j]
		switch {
		case math.IsNaN(si) && math.IsNaN(sj):
			return 0
		case math.IsNaN(si):
			return 1
		case math.IsNaN(sj):
			return -1
		}
		return cmp.Compare(si, sj)
	})
	iv.keep = [rounds]bool{}
	for _, k := range order[:(rounds+1)/2] {
		iv.keep[k] = true
	}
	return share
}
