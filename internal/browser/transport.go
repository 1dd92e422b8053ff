package browser

import (
	"bytes"
	"fmt"
	"net/http"
	"net/netip"
	"sync"
	"time"
)

// HandlerTransport is an http.RoundTripper that dispatches requests to an
// in-process http.Handler without touching the network. The simulation uses
// it so a year-long crawl of tens of thousands of sites runs in seconds;
// the same code paths (request construction, redirects, cookies, body
// handling) execute as over TCP.
type HandlerTransport struct {
	Handler http.Handler
}

// RoundTrip implements http.RoundTripper.
func (t *HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rw := newRecorder()
	// Shallow copy instead of req.Clone: the handler is in-process and
	// treats the request as read-only apart from ParseForm, which only
	// writes the copy's own Form/PostForm fields. Cloning the header map
	// and URL for every page load would be pure allocation churn.
	inner := *req
	if inner.Body == nil {
		inner.Body = http.NoBody
	}
	if inner.Host == "" {
		inner.Host = req.URL.Host
	}
	t.Handler.ServeHTTP(rw, &inner)
	return rw.response(req), nil
}

// recorder is a minimal in-memory http.ResponseWriter. Recorders are
// pooled: response() hands the recorder itself out as the response body,
// and closing that body releases it for reuse — so in steady state a round
// trip recycles one recorder, its header map, and its grown body buffer
// instead of allocating fresh ones per page. The usual body contract
// applies: reading after Close reads another request's bytes.
type recorder struct {
	code     int
	header   http.Header
	body     bytes.Buffer
	wrote    bool
	reader   bytes.Reader // Read view over body, set by response()
	released bool
}

var recorderPool = sync.Pool{New: func() any { return new(recorder) }}

func newRecorder() *recorder {
	r := recorderPool.Get().(*recorder)
	r.code = http.StatusOK
	r.wrote = false
	r.released = false
	r.body.Reset()
	if r.header == nil {
		r.header = make(http.Header)
	} else {
		clear(r.header)
	}
	return r
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}

// WriteString lets io.WriteString append handler output without an
// intermediate []byte copy of the page.
func (r *recorder) WriteString(s string) (int, error) {
	r.wrote = true
	return r.body.WriteString(s)
}

// Read serves the response body.
func (r *recorder) Read(p []byte) (int, error) { return r.reader.Read(p) }

// Close returns the recorder to the pool. It is idempotent, so a caller
// that closes a body twice cannot hand one recorder out twice.
func (r *recorder) Close() error {
	if !r.released {
		r.released = true
		recorderPool.Put(r)
	}
	return nil
}

// statusLines caches "200 OK"-style status strings for the codes the
// synthetic web actually emits; anything else falls back to formatting.
var statusLines sync.Map // int -> string

func statusLine(code int) string {
	if s, ok := statusLines.Load(code); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%d %s", code, http.StatusText(code))
	statusLines.Store(code, s)
	return s
}

func (r *recorder) response(req *http.Request) *http.Response {
	r.reader.Reset(r.body.Bytes())
	return &http.Response{
		Status:        statusLine(r.code),
		StatusCode:    r.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        r.header,
		Body:          r,
		ContentLength: int64(r.body.Len()),
		Request:       req,
	}
}

// ProxyTransport wraps a RoundTripper, stamping each outbound request with
// a source IP drawn from a rotating proxy set and recording which IP each
// host saw. It models the paper's §4.3.2 proxy network: "websites receive
// at most one account registration from a given IP."
type ProxyTransport struct {
	Base http.RoundTripper
	// NextIP selects the source address for a host. It is called once per
	// host; the choice is cached so retries reuse the same exit.
	NextIP func(host string) netip.Addr
	// Latency, when positive, blocks each round trip for one emulated
	// network round-trip time (wall-clock, unlike the crawler's virtual-time
	// rate limit). It reproduces the latency-bound character of real
	// crawling so concurrent workers have something to overlap.
	Latency time.Duration

	mu     sync.Mutex
	byHost map[string]netip.Addr
	// debt is how much longer the session has already slept than Latency
	// per round trip would require. time.Sleep reliably oversleeps (timer
	// granularity plus scheduling delay — ~10% at 1ms on a loaded box), so
	// uncorrected sleeps would emulate a systematically slower network than
	// configured; carrying the overshoot forward keeps a session's total
	// emulated latency at requests x Latency.
	debt time.Duration
}

// RoundTrip implements http.RoundTripper, adding an X-Forwarded-For header
// carrying the chosen exit IP (the synthetic web reads it as the client
// address).
func (t *ProxyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Hostname()
	t.mu.Lock()
	if t.byHost == nil {
		t.byHost = make(map[string]netip.Addr)
	}
	ip, ok := t.byHost[host]
	if !ok {
		ip = t.NextIP(host)
		t.byHost[host] = ip
	}
	t.mu.Unlock()
	if t.Latency > 0 {
		t.mu.Lock()
		target := t.Latency - t.debt
		t.mu.Unlock()
		var slept time.Duration
		if target > 0 {
			start := time.Now()
			time.Sleep(target)
			slept = time.Since(start)
		}
		t.mu.Lock()
		t.debt += slept - t.Latency
		t.mu.Unlock()
	}
	// The request is browser-owned: the Client builds a fresh one per
	// request hop and nothing else holds a reference, so the header can be
	// stamped in place instead of cloning the map (and its value slices)
	// per page.
	req.Header.Set("X-Forwarded-For", ip.String())
	return t.Base.RoundTrip(req)
}

// ExitIP returns the exit address assigned to host, if one has been used.
func (t *ProxyTransport) ExitIP(host string) (netip.Addr, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ip, ok := t.byHost[host]
	return ip, ok
}
