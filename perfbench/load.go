package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/stream"
)

// class is a latency class: every request the generator sends is timed
// under exactly one.
type class int

const (
	cIngest class = iota
	cEdge
	cNeighbors // /successors and /precursors
	cReach
	cScan
	nClasses
)

var classNames = [nClasses]string{"ingest", "edge", "neighbors", "reach", "scan"}

// sample is one timed request.
type sample struct {
	due int64 // when the request was due to be sent, Unix ns
	dur int64 // latency from due, ns
	n   int64 // items acknowledged (ingest) or 1 (reads)
}

// tally is one client goroutine's record of a phase; tallies merge
// once the goroutines have returned.
type tally struct {
	lat       [nClasses][]sample
	attempted int64
	failed    int64
	items     int64 // items acknowledged by /ingest
	reads     int64 // read requests answered correctly
	late      []int64
	errs      []string // the first few failures, for the report
}

func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.items += o.items
	t.reads += o.reads
	t.late = append(t.late, o.late...)
	for _, e := range o.errs {
		t.note(e)
	}
}

func (t *tally) note(e string) {
	if len(t.errs) < 8 {
		t.errs = append(t.errs, e)
	}
}

// record books one attempted request of class c that was due at due;
// err non-nil marks it failed. Failed requests count against the
// attempted total and never enter the latency samples.
func (t *tally) record(c class, due time.Time, err error) {
	t.recordN(c, due, err, 1)
}

// recordN is record for a request that carried n items.
func (t *tally) recordN(c class, due time.Time, err error, n int) {
	t.attempted++
	if err != nil {
		t.failed++
		t.note(classNames[c] + ": " + err.Error())
		return
	}
	t.lat[c] = append(t.lat[c], sample{due: due.UnixNano(), dur: int64(time.Since(due)), n: int64(n)})
	if c == cIngest {
		t.items += int64(n)
	} else {
		t.reads++
	}
}

// checker sends one request at a time and checks each answer against
// the exact reference. GSS only overestimates, and weights and edge sets
// only grow, so lower-bound checks stay valid while writes run.
type checker struct {
	d      *dataset
	base   string
	client *http.Client
	seen   map[string]struct{} // reused by the heavy-edge check
	bits   []uint64            // reused node set for neighbour checks
	buf    bytes.Buffer        // reused response body
}

func newChecker(d *dataset, base string, client *http.Client) *checker {
	return &checker{d: d, base: base, client: client, seen: make(map[string]struct{}),
		bits: make([]uint64, (len(d.succ)+63)/64)}
}

// getJSON GETs path and decodes a 2xx JSON answer into out.
func (c *checker) getJSON(path string, out any) error {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	return nil
}

// ingest posts one body and checks that all n items were acknowledged.
func (c *checker) ingest(body []byte, binary bool, n int) error {
	ct := "application/x-ndjson"
	if binary {
		ct = stream.ContentTypeBinary
	}
	resp, err := c.client.Post(c.base+"/ingest", ct, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("/ingest: status %d", resp.StatusCode)
	}
	var r struct {
		Ingested int64 `json:"ingested"`
		Spilled  int64 `json:"spilled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return fmt.Errorf("/ingest: decode: %w", err)
	}
	if r.Ingested != int64(n) || r.Spilled != 0 {
		return fmt.Errorf("/ingest: %d of %d items applied (%d spilled)", r.Ingested, n, r.Spilled)
	}
	return nil
}

// edge fails when the sketch answers below floor, the true weight (or a
// lower bound of it); it returns the answer.
func (c *checker) edge(src, dst string, floor int64) (int64, error) {
	var r struct {
		Weight int64 `json:"weight"`
	}
	if err := c.getJSON("/edge?src="+url.QueryEscape(src)+"&dst="+url.QueryEscape(dst), &r); err != nil {
		return 0, err
	}
	if r.Weight < floor {
		return 0, fmt.Errorf("/edge %s->%s: weight %d below true %d", src, dst, r.Weight, floor)
	}
	return r.Weight, nil
}

// refWeight is the edge's weight in the reference stream.
func (c *checker) refWeight(src, dst string) int64 {
	w, _ := c.d.ref.EdgeWeight(src, dst)
	return w
}

// neighbors fails when the answer misses a true neighbour. It returns
// the number of distinct nodes answered, for the precision metric.
func (c *checker) neighbors(v string, succ bool) (int, error) {
	path := "/precursors"
	if succ {
		path = "/successors"
	}
	ord, ok := nodeOrd(v)
	if !ok || ord >= len(c.d.succ) {
		return 0, fmt.Errorf("%s: %s is not a stream node", path, v)
	}
	want := c.d.pred[ord]
	if succ {
		want = c.d.succ[ord]
	}
	resp, err := c.client.Get(c.base + path + "?v=" + url.QueryEscape(v))
	if err != nil {
		return 0, fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("%s: read: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	clear(c.bits)
	n, err := markNodes(c.buf.Bytes(), c.bits)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", path, v, err)
	}
	for _, w := range want {
		if c.bits[w/64]&(1<<(w%64)) == 0 {
			return 0, fmt.Errorf("%s %s: misses true neighbour n%d", path, v, w)
		}
	}
	return n, nil
}

// markNodes sets the bit of every node in the "nodes" array of a
// neighbour answer and returns how many distinct nodes it held. Answers
// hold only stream node IDs, so the fast path parses "n<digits>"
// strings in place; anything else goes through encoding/json.
func markNodes(body []byte, bits []uint64) (int, error) {
	n := 0
	mark := func(id []byte) bool {
		if len(id) < 2 || id[0] != 'n' {
			return false
		}
		v := 0
		for _, ch := range id[1:] {
			if ch < '0' || ch > '9' {
				return false
			}
			v = v*10 + int(ch-'0')
			if v >= len(bits)*64 {
				return false
			}
		}
		if bits[v/64]&(1<<(v%64)) == 0 {
			bits[v/64] |= 1 << (v % 64)
			n++
		}
		return true
	}
	i := bytes.Index(body, []byte(`"nodes":[`))
	if i >= 0 {
		rest := body[i+len(`"nodes":[`):]
		for len(rest) > 0 && rest[0] == '"' {
			j := bytes.IndexByte(rest[1:], '"')
			if j < 0 || !mark(rest[1:1+j]) {
				break
			}
			rest = rest[j+2:]
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
		if len(rest) > 0 && rest[0] == ']' {
			return n, nil
		}
	}
	// Slow path: a full decode, with every ID checked.
	var r struct {
		Nodes []string `json:"nodes"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	clear(bits)
	n = 0
	for _, id := range r.Nodes {
		if !mark([]byte(id)) {
			return 0, fmt.Errorf("answer holds %q, not a stream node", id)
		}
	}
	return n, nil
}

// reach fails on a "false" the exact graph contradicts.
func (c *checker) reach(src, dst string) (bool, error) {
	var r struct {
		Reachable bool `json:"reachable"`
	}
	if err := c.getJSON("/reachable?src="+url.QueryEscape(src)+"&dst="+url.QueryEscape(dst), &r); err != nil {
		return false, err
	}
	if !r.Reachable && c.d.ref.Reachable(src, dst) {
		return false, fmt.Errorf("/reachable %s->%s: false, but a path exists", src, dst)
	}
	return r.Reachable, nil
}

// scan fails when a true heavy edge is missing from /heavy?min=heavyMin
// scaled by passes, the stream passes every body has been acknowledged.
func (c *checker) scan(passes int64) error {
	var r []struct {
		Srcs []string `json:"srcs"`
		Dsts []string `json:"dsts"`
	}
	if err := c.getJSON("/heavy?min="+strconv.FormatInt(heavyMin*passes, 10), &r); err != nil {
		return err
	}
	clear(c.seen)
	for _, e := range r {
		for _, s := range e.Srcs {
			for _, d := range e.Dsts {
				c.seen[s+"\x00"+d] = struct{}{}
			}
		}
	}
	for _, e := range c.d.heavy {
		if _, ok := c.seen[e[0]+"\x00"+e[1]]; !ok {
			return fmt.Errorf("/heavy: misses true heavy edge %s->%s", e[0], e[1])
		}
	}
	return nil
}
