// Package browser is a from-scratch headless web browser: it fetches pages
// over HTTP, maintains cookies, parses HTML into a DOM (internal/htmldom),
// resolves links, and fills and submits forms. It replaces the PhantomJS/
// WebKit engine the paper's crawler scripted (paper §4.3.1), providing the
// same capability surface the registration heuristics require.
//
// A Client parses every page of its session into one htmldom.Arena, so the
// nodes it hands out — Page.DOM, Form.Node, Field.Node, Link.Node — live
// until the client's Release, not until the garbage collector finds them
// unreachable. The owner of a session calls Release once it is done with
// every page the session loaded; strings already copied out of a page
// (Raw, Text, field values, URLs) stay valid after it. Release resets the
// arena for the client's next page, or, for a client opened by a Pool,
// hands it back so the pool's next session reuses it: a crawl wave
// recycles DOM storage across its sessions, and the storage goes to the
// garbage collector with the wave's Pool.
package browser

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"strings"
	"sync"
	"unsafe"

	"tripwire/internal/htmldom"
)

// Page is one fetched and parsed document.
type Page struct {
	URL        *url.URL // final URL after redirects
	StatusCode int
	Raw        string
	DOM        *htmldom.Node
}

// Link is an anchor on a page with its resolved destination.
type Link struct {
	URL  *url.URL
	Text string // visible anchor text ("" for image-only links)
	Node *htmldom.Node
}

// Client is a headless browser session. Construct with New; the zero value
// is not usable.
type Client struct {
	hc *http.Client
	// UserAgent is sent on every request.
	UserAgent string
	// MaxBodyBytes caps how much of a response body is read.
	MaxBodyBytes int64
	// pageLoads counts fetches, for rate-limit accounting by the caller.
	pageLoads int
	// uaValue is the cached one-element header value for UserAgent, shared
	// read-only across this session's requests.
	uaValue []string
	// arena holds every DOM parsed since the last Release; nil until the
	// first page.
	arena *htmldom.Arena
	// pool lends arena to the session and takes it back on Release; nil
	// when the client owns its arena.
	pool *Pool
}

// Option configures a Client.
type Option func(*Client)

// WithTransport sets the underlying RoundTripper (e.g. an in-process
// handler transport or a proxy-bound transport).
func WithTransport(rt http.RoundTripper) Option {
	return func(c *Client) { c.hc.Transport = rt }
}

// New returns a browser session with a fresh cookie jar. The client owns
// the storage its pages are parsed into, and keeps every page it loads
// until Release: a long-lived client calls Release once it is done with a
// page, or it holds every page it ever parsed.
func New(opts ...Option) *Client {
	jar, err := cookiejar.New(nil)
	if err != nil {
		panic(err) // cookiejar.New with nil options cannot fail
	}
	c := &Client{
		hc:           &http.Client{Jar: jar},
		UserAgent:    "Mozilla/5.0 (compatible; tripwire-crawler/1.0)",
		MaxBodyBytes: 4 << 20,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// PageLoads returns the number of HTTP fetches performed so far.
func (c *Client) PageLoads() int { return c.pageLoads }

// Release recycles the client's parse storage: it resets it for the
// client's next page, or returns it to the client's Pool. It invalidates
// every Page.DOM, Form.Node, Field.Node and Link.Node the client has handed
// out: reading one afterwards reads a later document. Strings already
// taken from those pages, the cookie jar and the client itself stay valid.
// Release is idempotent.
func (c *Client) Release() {
	if c.arena == nil {
		return
	}
	c.arena.Reset()
	if c.pool != nil {
		c.pool.put(c.arena)
		c.arena = nil
	}
}

// A Pool recycles parse storage among the sessions it opens: a client from
// Pool.New takes an arena from the pool for its first page and hands it
// back on Release. The arenas belong to the pool and go to the garbage
// collector with it, so an owner scopes a Pool to the sessions that share
// storage, such as one crawl wave. The zero value is ready to use; a Pool
// is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free []*htmldom.Arena
}

// New returns a session like the package-level New whose parse storage
// comes from p. A nil Pool's sessions own their storage.
func (p *Pool) New(opts ...Option) *Client {
	c := New(opts...)
	c.pool = p
	return c
}

// get takes a released arena, or a new one when none is free.
func (p *Pool) get() *htmldom.Arena {
	if p == nil {
		return new(htmldom.Arena)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(htmldom.Arena)
	}
	a := p.free[n-1]
	p.free = p.free[:n-1]
	return a
}

func (p *Pool) put(a *htmldom.Arena) {
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// Get fetches and parses the page at rawURL.
func (c *Client) Get(rawURL string) (*Page, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, fmt.Errorf("browser: building request for %q: %w", rawURL, err)
	}
	return c.do(req)
}

// GetURL fetches a pre-resolved URL (e.g. from Page.Links), skipping the
// serialize-then-reparse round trip Get(u.String()) would pay per page.
func (c *Client) GetURL(u *url.URL) (*Page, error) {
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Host:       u.Host,
	}
	return c.do(req)
}

// Post submits an application/x-www-form-urlencoded POST.
func (c *Client) Post(rawURL string, form url.Values) (*Page, error) {
	req, err := http.NewRequest(http.MethodPost, rawURL, strings.NewReader(form.Encode()))
	if err != nil {
		return nil, fmt.Errorf("browser: building POST for %q: %w", rawURL, err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return c.do(req)
}

func (c *Client) do(req *http.Request) (*Page, error) {
	// The header key is pre-canonical and the value slice is shared across
	// the session's requests, sparing a per-request one-element allocation.
	if c.uaValue == nil || c.uaValue[0] != c.UserAgent {
		c.uaValue = []string{c.UserAgent}
	}
	req.Header["User-Agent"] = c.uaValue
	c.pageLoads++
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("browser: fetch %s: %w", req.URL, err)
	}
	defer resp.Body.Close()
	raw, err := readBody(resp, c.MaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("browser: reading %s: %w", req.URL, err)
	}
	if c.arena == nil {
		c.arena = c.pool.get()
	}
	return &Page{
		URL:        resp.Request.URL,
		StatusCode: resp.StatusCode,
		Raw:        raw,
		DOM:        c.arena.Parse(raw),
	}, nil
}

// readBody drains the response body, capped at limit bytes. When the
// response declares its length — always true for the in-process handler
// transport — the buffer is sized exactly once instead of re-growing
// through io.ReadAll's append cycle on every page, and is aliased into the
// returned string without a second copy (the buffer never escapes, so
// nothing can mutate it afterwards).
func readBody(resp *http.Response, limit int64) (string, error) {
	if n := resp.ContentLength; n >= 0 && n <= limit {
		buf := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return "", err
		}
		return unsafe.String(unsafe.SliceData(buf), len(buf)), nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return string(b), err
}

// Links returns every anchor on the page with a resolvable href.
func (p *Page) Links() []Link {
	var out []Link
	for _, a := range p.DOM.ElementsByTag("a") {
		href, ok := a.Attr("href")
		if !ok || href == "" || strings.HasPrefix(href, "javascript:") || strings.HasPrefix(href, "#") {
			continue
		}
		u, err := p.URL.Parse(href)
		if err != nil {
			continue
		}
		out = append(out, Link{URL: u, Text: a.Text(), Node: a})
	}
	return out
}

// Title returns the page's <title> text.
func (p *Page) Title() string {
	if t := p.DOM.First(func(n *htmldom.Node) bool { return n.Tag == "title" }); t != nil {
		return t.Text()
	}
	return ""
}

// OK reports whether the page loaded with a 2xx status.
func (p *Page) OK() bool { return p.StatusCode >= 200 && p.StatusCode < 300 }
