// Package faultproxy is a seedable fault-injecting reverse proxy for
// exercising degraded-network behavior in tests and benchmarks.
//
// A Proxy listens on its own address and forwards every request to one
// target base URL, byte-transparently (request and response bodies
// stream through unbuffered, so long-lived transfers like /ingest
// uploads, /log tails and partition exports work through it). Faults
// are injected at the proxy, so the backend's state and its listener
// survive every failure mode — exactly the property fault tests need:
// "the process is unreachable" without "the process lost its data" or
// "another test stole its port".
//
// Supported faults, composable per request and scoped by path prefix:
//
//   - added latency (fixed plus seeded jitter)
//   - connection reset (RST before any response byte)
//   - blackhole (accept the request, never answer)
//   - HTTP status injection (e.g. 503 without reaching the backend)
//   - slow response bodies (byte-rate throttle)
//   - truncated response bodies (cut mid-body after the status went out)
//   - a down switch and a flap schedule driving it
//
// Probabilistic faults draw from one seeded source, so a fault
// schedule replays identically for a given seed. All controls are safe
// for concurrent use while traffic flows.
//
// Faults that fire BEFORE the forward (reset, blackhole, status,
// down) guarantee the backend never saw the request — important when
// the caller needs retry-safety for non-idempotent traffic. Body
// faults (throttle, truncate) fire after the backend has already
// processed the request, and belong on idempotent read paths.
package faultproxy

import (
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Fault is one injection rule. Zero-valued fields do not participate:
// a Fault{Path: "/nodes", Status: 503} injects a plain 503 on /nodes
// requests and nothing else. When several rules match one request
// their effects compose: latencies add, and the first rule (in Set
// order) asking for a terminal fault (Reset, Blackhole, Status) wins.
type Fault struct {
	// Path restricts the rule to request paths with this prefix; ""
	// matches every request.
	Path string
	// Prob is the per-request probability in (0,1] that the rule
	// fires. Outside that range the rule always fires.
	Prob float64

	// Latency delays the request before anything else happens, plus a
	// uniformly drawn addition in [0,Jitter).
	Latency time.Duration
	Jitter  time.Duration

	// Reset closes the client connection with no response bytes — the
	// transport-level "connection reset" a crashed peer produces.
	Reset bool
	// Blackhole accepts the request and never answers. The connection
	// is held until the client gives up (request context cancelled),
	// the rules change, or the proxy closes; then it is reset.
	Blackhole bool
	// Status, when non-zero, answers this HTTP status with a small
	// JSON body without reaching the backend.
	Status int

	// BytesPerSec throttles the response body copy to roughly this
	// rate (0 = unthrottled).
	BytesPerSec int
	// TruncateBody, when > 0, cuts the connection after this many
	// response-body bytes — the status and headers have already gone
	// out, so the client sees a truncated 200, the silent failure mode
	// real networks produce.
	TruncateBody int64
}

// Options configures a Proxy.
type Options struct {
	// Seed seeds the probability and jitter source (0 = 1).
	Seed int64
	// Addr is the listen address ("127.0.0.1:0" by default).
	Addr string
	// Logf receives operational notes; nil silences them.
	Logf func(format string, args ...interface{})
}

// Stats counts what the proxy did, by outcome.
type Stats struct {
	Requests    int64 `json:"requests"`
	Forwarded   int64 `json:"forwarded"`
	Resets      int64 `json:"resets"` // includes down-switch aborts
	Blackholed  int64 `json:"blackholed"`
	Injected    int64 `json:"injected_status"`
	Truncated   int64 `json:"truncated_bodies"`
	Delayed     int64 `json:"delayed"`
	UpstreamErr int64 `json:"upstream_errors"` // backend unreachable through the proxy
}

// Proxy is one fault-injecting reverse proxy in front of one target.
type Proxy struct {
	target    *url.URL
	transport *http.Transport
	srv       *http.Server
	ls        net.Listener
	logf      func(string, ...interface{})

	mu      sync.Mutex
	rng     *rand.Rand
	faults  []Fault
	down    bool
	release chan struct{} // closed on every rule change; unblocks blackholes

	// conns tracks open client connections so a kill can sever
	// in-flight requests the way a crashed process would.
	conns map[net.Conn]struct{}

	inflight atomic.Int64

	// Outcome counters are telemetry atomics, so a proxy embedded in a
	// live harness can hand them to a registry-backed dashboard while
	// Stats() keeps serving the plain snapshot.
	requests    telemetry.Counter
	forwarded   telemetry.Counter
	resets      telemetry.Counter
	blackholed  telemetry.Counter
	injected    telemetry.Counter
	truncated   telemetry.Counter
	delayed     telemetry.Counter
	upstreamErr telemetry.Counter

	flapMu   sync.Mutex
	flapStop chan struct{}
	flapDone chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
}

// New starts a proxy forwarding to target (a base URL such as
// "http://127.0.0.1:8080"). Close releases the listener.
func New(target string, opt Options) (*Proxy, error) {
	u, err := url.Parse(strings.TrimRight(strings.TrimSpace(target), "/"))
	if err != nil {
		return nil, err
	}
	if opt.Addr == "" {
		opt.Addr = "127.0.0.1:0"
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	ls, err := net.Listen("tcp", opt.Addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: u,
		transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
			MaxIdleConnsPerHost:   16,
		},
		ls:      ls,
		logf:    logf,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		release: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
	p.srv = &http.Server{
		Handler: http.HandlerFunc(p.handle),
		// ErrorLog noise (client resets, aborted bodies) is the whole
		// point of this proxy; keep it out of test output.
		ErrorLog: nil,
		ConnState: func(c net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				p.mu.Lock()
				p.conns[c] = struct{}{}
				p.mu.Unlock()
			case http.StateClosed, http.StateHijacked:
				p.mu.Lock()
				delete(p.conns, c)
				p.mu.Unlock()
			}
		},
	}
	go func() { _ = p.srv.Serve(ls) }()
	return p, nil
}

// URL is the proxy's base URL — the address callers (routers, probers,
// followers) should be pointed at.
func (p *Proxy) URL() string { return "http://" + p.ls.Addr().String() }

// Target is the backend base URL the proxy forwards to.
func (p *Proxy) Target() string { return p.target.String() }

// Close stops the flap schedule (if any), severs every connection and
// releases the listener. Blackholed requests are released.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		p.StopFlap()
		close(p.closed)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = p.srv.Shutdown(ctx)
		p.CloseClientConnections()
		p.transport.CloseIdleConnections()
	})
}

// Set replaces the fault rule set. Blackholed requests waiting under
// the old rules are released (and reset).
func (p *Proxy) Set(faults ...Fault) {
	p.mu.Lock()
	p.faults = append([]Fault(nil), faults...)
	close(p.release)
	p.release = make(chan struct{})
	p.mu.Unlock()
}

// Add appends one fault rule without disturbing the others.
func (p *Proxy) Add(f Fault) {
	p.mu.Lock()
	p.faults = append(p.faults, f)
	close(p.release)
	p.release = make(chan struct{})
	p.mu.Unlock()
}

// Clear removes every fault rule and brings the proxy up. Blackholed
// requests are released.
func (p *Proxy) Clear() {
	p.mu.Lock()
	p.faults = nil
	p.down = false
	close(p.release)
	p.release = make(chan struct{})
	p.mu.Unlock()
}

// SetDown flips the blanket kill switch: while down, every request —
// including one already sleeping in a latency fault — aborts with a
// connection reset and the backend never sees it.
func (p *Proxy) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	close(p.release)
	p.release = make(chan struct{})
	p.mu.Unlock()
}

// Down reports the kill switch.
func (p *Proxy) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// CloseClientConnections severs every open client connection, so
// in-flight requests die at the transport level like a process crash.
func (p *Proxy) CloseClientConnections() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		if tcp, ok := c.(*net.TCPConn); ok {
			_ = tcp.SetLinger(0)
		}
		_ = c.Close()
	}
}

// Kill is SetDown(true) plus CloseClientConnections — the one-call
// process-crash simulation.
func (p *Proxy) Kill() {
	p.SetDown(true)
	p.CloseClientConnections()
}

// Revive is SetDown(false).
func (p *Proxy) Revive() { p.SetDown(false) }

// StartFlap drives the down switch on a schedule: up for up, then down
// (with connections severed) for down, repeating until StopFlap or
// Close. At most one flap schedule runs at a time; starting a new one
// replaces the old.
func (p *Proxy) StartFlap(up, down time.Duration) {
	p.StopFlap()
	p.flapMu.Lock()
	stop := make(chan struct{})
	done := make(chan struct{})
	p.flapStop, p.flapDone = stop, done
	p.flapMu.Unlock()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-p.closed:
				return
			case <-time.After(up):
			}
			p.Kill()
			select {
			case <-stop:
				p.Revive()
				return
			case <-p.closed:
				return
			case <-time.After(down):
			}
			p.Revive()
		}
	}()
}

// StopFlap halts the flap schedule and leaves the proxy up.
func (p *Proxy) StopFlap() {
	p.flapMu.Lock()
	stop, done := p.flapStop, p.flapDone
	p.flapStop, p.flapDone = nil, nil
	p.flapMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Inflight is the number of requests currently inside the proxy
// (including time spent in the backend).
func (p *Proxy) Inflight() int64 { return p.inflight.Load() }

// WaitIdle blocks until no request is in flight, or the timeout
// elapses; it reports whether the proxy went idle.
func (p *Proxy) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for p.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Stats snapshots the outcome counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:    p.requests.Value(),
		Forwarded:   p.forwarded.Value(),
		Resets:      p.resets.Value(),
		Blackholed:  p.blackholed.Value(),
		Injected:    p.injected.Value(),
		Truncated:   p.truncated.Value(),
		Delayed:     p.delayed.Value(),
		UpstreamErr: p.upstreamErr.Value(),
	}
}

// effect is the composed verdict of every matching rule for one
// request, drawn once so the probability source stays deterministic.
type effect struct {
	latency   time.Duration
	reset     bool
	blackhole bool
	status    int
	bps       int
	truncate  int64 // 0 = no truncation
}

// decide composes the fault rules into one per-request effect and
// returns the release channel to wait on for blackholes.
func (p *Proxy) decide(path string) (effect, chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var e effect
	for _, f := range p.faults {
		if f.Path != "" && !strings.HasPrefix(path, f.Path) {
			continue
		}
		if f.Prob > 0 && f.Prob <= 1 && p.rng.Float64() >= f.Prob {
			continue
		}
		e.latency += f.Latency
		if f.Jitter > 0 {
			e.latency += time.Duration(p.rng.Int63n(int64(f.Jitter)))
		}
		terminal := e.reset || e.blackhole || e.status != 0
		if !terminal {
			switch {
			case f.Reset:
				e.reset = true
			case f.Blackhole:
				e.blackhole = true
			case f.Status != 0:
				e.status = f.Status
			}
		}
		if f.BytesPerSec > 0 && (e.bps == 0 || f.BytesPerSec < e.bps) {
			e.bps = f.BytesPerSec
		}
		if f.TruncateBody > 0 && (e.truncate == 0 || f.TruncateBody < e.truncate) {
			e.truncate = f.TruncateBody
		}
	}
	return e, p.release
}

func (p *Proxy) isDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// abort severs the client connection without a response: hijack and
// linger-0 close (a true RST) when possible, else the abort panic the
// net/http server converts into a torn connection.
func (p *Proxy) abort(w http.ResponseWriter) {
	p.resets.Inc()
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			if tcp, ok := conn.(*net.TCPConn); ok {
				_ = tcp.SetLinger(0)
			}
			_ = conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

func (p *Proxy) handle(w http.ResponseWriter, r *http.Request) {
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	p.requests.Inc()

	if p.isDown() {
		p.abort(w)
		return
	}
	e, release := p.decide(r.URL.Path)

	if e.latency > 0 {
		p.delayed.Inc()
		select {
		case <-time.After(e.latency):
		case <-r.Context().Done():
			p.abort(w)
			return
		case <-p.closed:
			p.abort(w)
			return
		}
		// A kill that landed during the sleep still aborts the request
		// — "died mid-transfer" for callers widening fault windows with
		// latency.
		if p.isDown() {
			p.abort(w)
			return
		}
	}
	switch {
	case e.reset:
		p.abort(w)
		return
	case e.blackhole:
		p.blackholed.Inc()
		select {
		case <-r.Context().Done():
		case <-release:
		case <-p.closed:
		}
		p.abort(w)
		return
	case e.status != 0:
		p.injected.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(e.status)
		_, _ = w.Write([]byte(`{"error":"faultproxy: injected status"}`))
		return
	}
	p.forward(w, r, e)
}

// forward relays the request to the target and streams the response
// back, applying body-level faults.
//
// The upstream request is not cancelled when the client hangs up: once
// forwarded, the backend may already be applying it, so the request
// stays in flight (Inflight, WaitIdle) until the backend has answered.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, e effect) {
	out, err := http.NewRequestWithContext(context.WithoutCancel(r.Context()), r.Method,
		p.target.String()+r.URL.RequestURI(), r.Body)
	if err != nil {
		p.upstreamErr.Inc()
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	stripHopByHop(out.Header)
	out.ContentLength = r.ContentLength
	resp, err := p.transport.RoundTrip(out)
	if err != nil {
		p.upstreamErr.Inc()
		p.logf("faultproxy: forwarding %s %s: %v", r.Method, r.URL.Path, err)
		p.abort(w) // to the client a dead backend is a torn connection
		return
	}
	defer resp.Body.Close()
	p.forwarded.Inc()
	hdr := w.Header()
	for k, vs := range resp.Header {
		hdr[k] = vs
	}
	stripHopByHop(hdr)
	w.WriteHeader(resp.StatusCode)
	if err := p.copyBody(w, resp.Body, e); err != nil {
		// Truncation requested, or the copy tore: abandon the
		// connection so the client observes the cut instead of a clean
		// end-of-body.
		panic(http.ErrAbortHandler)
	}
}

// copyBody streams the response body, honoring the throttle and the
// truncation point. A non-nil return means the connection must die.
func (p *Proxy) copyBody(w http.ResponseWriter, body io.Reader, e effect) error {
	flusher, _ := w.(http.Flusher)
	chunk := 32 << 10
	var pause time.Duration
	if e.bps > 0 {
		// ~20 pauses per second keeps the rate roughly right without a
		// token bucket.
		chunk = e.bps / 20
		if chunk < 1 {
			chunk = 1
		}
		pause = 50 * time.Millisecond
	}
	buf := make([]byte, chunk)
	var written int64
	for {
		limit := int64(len(buf))
		if e.truncate > 0 && e.truncate-written < limit {
			limit = e.truncate - written
		}
		if limit <= 0 {
			p.truncated.Inc()
			return io.ErrShortWrite
		}
		n, rerr := body.Read(buf[:limit])
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr
			}
			written += int64(n)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
		if pause > 0 {
			select {
			case <-p.closed:
				return io.ErrClosedPipe
			case <-time.After(pause):
			}
		}
	}
}

// stripHopByHop removes connection-scoped headers that must not be
// forwarded by a proxy.
func stripHopByHop(h http.Header) {
	for _, k := range []string{"Connection", "Keep-Alive", "Proxy-Connection",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade"} {
		h.Del(k)
	}
}
