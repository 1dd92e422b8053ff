// Package browser is a from-scratch headless web browser: it fetches pages
// over HTTP, maintains cookies, parses HTML into a DOM (internal/htmldom),
// resolves links, and fills and submits forms. It replaces the PhantomJS/
// WebKit engine the paper's crawler scripted (paper §4.3.1), providing the
// same capability surface the registration heuristics require.
//
// A Client parses pages into an htmldom.Arena, so the nodes it hands out —
// Page.DOM, Form.Node, Field.Node, Link.Node — live until their storage is
// reset, not until the garbage collector finds them unreachable. Strings
// already copied out of a page (Raw, Text, field values, URLs) are not
// arena memory and stay valid after a reset. The storage has one of two
// owners:
//
//   - The client's own, taken on its first page. It keeps every page the
//     client loads until the client's Release resets it, so a long-lived
//     client calls Release once it is done with a page.
//   - A Pool's, lent for one call by Client.Borrow. Pages loaded during the
//     borrow are parsed into the lent storage, which the give-back resets
//     and returns to the pool for the next borrower. The crawler lends
//     this way for each registration attempt.
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

// Page is one fetched and parsed document. Forms and Links share one walk
// of the DOM, made by whichever is called first; like its Client, a Page
// belongs to one goroutine at a time.
type Page struct {
	URL        *url.URL // final URL after redirects
	StatusCode int
	Raw        string
	DOM        *htmldom.Node

	// forms and anchors are the page's form and a elements in document
	// order, collected once walked is set.
	forms, anchors []*htmldom.Node
	walked         bool
}

// Link is an anchor on a page with its resolved destination.
type Link struct {
	URL  *url.URL
	Text string // visible anchor text ("" for image-only links)
	Node *htmldom.Node
}

// Client is a headless browser session. Construct with New; the zero value
// is not usable. It calls its http.RoundTripper itself, one call per
// request hop, and follows redirects and keeps cookies the way net/http's
// client does.
type Client struct {
	rt http.RoundTripper
	// jar holds the session's cookies; nil until a response sets one.
	jar *cookiejar.Jar
	// UserAgent is sent on every request.
	UserAgent string
	// MaxBodyBytes caps how much of a response body is read.
	MaxBodyBytes int64
	// pageLoads counts fetches, for rate-limit accounting by the caller.
	pageLoads int
	// uaValue is the cached one-element header value for UserAgent, shared
	// read-only across this session's requests.
	uaValue []string
	// arena is the storage the next page is parsed into: the client's own,
	// nil until its first page, or one a Pool lent it.
	arena *htmldom.Arena
}

// Option configures a Client.
type Option func(*Client)

// WithTransport sets the underlying RoundTripper (e.g. an in-process
// handler transport or a proxy-bound transport). A nil rt means
// http.DefaultTransport.
func WithTransport(rt http.RoundTripper) Option {
	return func(c *Client) { c.rt = rt }
}

// New returns a browser session with an empty cookie jar. The client owns
// the storage its pages are parsed into, and keeps every page it loads
// until Release: a long-lived client calls Release once it is done with a
// page, or it holds every page it ever parsed.
func New(opts ...Option) *Client {
	c := &Client{
		UserAgent:    "Mozilla/5.0 (compatible; tripwire-crawler/1.0)",
		MaxBodyBytes: 4 << 20,
	}
	for _, o := range opts {
		o(c)
	}
	if c.rt == nil {
		c.rt = http.DefaultTransport
	}
	return c
}

// PageLoads returns the number of HTTP fetches performed so far.
func (c *Client) PageLoads() int { return c.pageLoads }

// Release resets the storage the client parses into, for its next page.
// It invalidates every Page.DOM, Form.Node, Field.Node and Link.Node the
// client has parsed into that storage: reading one afterwards reads a
// later document. Strings already taken from those pages, the cookie jar
// and the client itself stay valid. Release is idempotent.
func (c *Client) Release() {
	if c.arena != nil {
		c.arena.Reset()
	}
}

// Borrow lends the client parse storage from p until giveBack is called:
// the pages the client loads in between are parsed into it. giveBack
// resets that storage, which invalidates those pages' nodes, returns it to
// p and restores the storage the client had before, so pages loaded before
// Borrow stay valid and the client stays usable. Borrows nest. Call
// giveBack once: a second call would lend the storage to two borrowers.
func (c *Client) Borrow(p *Pool) (giveBack func()) {
	own, lent := c.arena, p.get()
	c.arena = lent
	return func() {
		lent.Reset()
		p.put(lent)
		c.arena = own
	}
}

// A Pool lends parse storage to clients, one call at a time (Borrow), and
// keeps what they give back for the next borrower. The storage belongs to
// the pool and goes to the garbage collector with it, so an owner scopes a
// Pool to the calls that share storage: the crawler holds one per Crawler.
// The zero value is ready to use; a Pool is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free []*htmldom.Arena
}

// get takes a given-back arena, or a new one when none is free.
func (p *Pool) get() *htmldom.Arena {
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
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("browser: building request for %q: %w", rawURL, err)
	}
	return c.GetURL(u)
}

// GetURL fetches a pre-resolved URL (e.g. from Page.Links), skipping the
// serialize-then-reparse round trip Get(u.String()) would pay per page.
func (c *Client) GetURL(u *url.URL) (*Page, error) {
	return c.do(newRequest(http.MethodGet, u, nil))
}

// Post submits an application/x-www-form-urlencoded POST.
func (c *Client) Post(rawURL string, form url.Values) (*Page, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("browser: building POST for %q: %w", rawURL, err)
	}
	return c.postURL(u, form)
}

// postURL is Post to a parsed URL.
func (c *Client) postURL(u *url.URL, form url.Values) (*Page, error) {
	req := newRequest(http.MethodPost, u, strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return c.do(req)
}

// newRequest builds the request http.NewRequest(method, u.String(), body)
// builds, without serializing u and parsing it back: u itself is the
// request's URL, unless it has an empty port, which the request drops from
// a copy. A non-nil body gets a length and a GetBody that replays it.
func newRequest(method string, u *url.URL, body *strings.Reader) *http.Request {
	if strings.HasSuffix(u.Host, ":") {
		cp := *u
		cp.Host = strings.TrimSuffix(u.Host, ":")
		u = &cp
	}
	req := &http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Host:       u.Host,
	}
	if body == nil {
		return req
	}
	req.ContentLength = int64(body.Len())
	if req.ContentLength == 0 {
		req.Body = http.NoBody
		req.GetBody = func() (io.ReadCloser, error) { return http.NoBody, nil }
		return req
	}
	req.Body = io.NopCloser(body)
	snapshot := *body
	req.GetBody = func() (io.ReadCloser, error) {
		r := snapshot
		return io.NopCloser(&r), nil
	}
	return req
}

func (c *Client) do(req *http.Request) (*Page, error) {
	// The header key is pre-canonical and the value slice is shared across
	// the session's requests, sparing a per-request one-element allocation.
	if c.uaValue == nil || c.uaValue[0] != c.UserAgent {
		c.uaValue = []string{c.UserAgent}
	}
	req.Header["User-Agent"] = c.uaValue
	c.pageLoads++
	resp, final, err := c.fetch(req)
	if err != nil {
		return nil, fmt.Errorf("browser: fetch %s: %w", req.URL, err)
	}
	defer resp.Body.Close()
	raw, err := readBody(resp, c.MaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("browser: reading %s: %w", req.URL, err)
	}
	if c.arena == nil {
		c.arena = new(htmldom.Arena)
	}
	return &Page{
		URL:        final,
		StatusCode: resp.StatusCode,
		Raw:        raw,
		DOM:        c.arena.Parse(raw),
	}, nil
}

// maxRedirects is net/http's default redirect policy: the tenth redirect
// in a row fails the fetch.
const maxRedirects = 10

// fetch sends req and follows its redirects by net/http's rules: a 301,
// 302 or 303 turns a request other than GET or HEAD into a GET without a
// body, a 307 or 308 repeats the method and replays the body through
// GetBody, and a redirect hop carries the headers the browser set on the
// first request plus a Referer. It returns the last response and the URL
// that produced it.
func (c *Client) fetch(req *http.Request) (*http.Response, *url.URL, error) {
	first, keepBody := req, true
	for sent := 1; ; sent++ {
		resp, err := c.send(req)
		if err != nil {
			return nil, nil, err
		}
		method, withBody, redirect := redirectBehavior(req.Method, resp.StatusCode)
		loc := resp.Header.Get("Location")
		if !redirect || loc == "" {
			return resp, req.URL, nil
		}
		keepBody = keepBody && withBody
		resp.Body.Close()
		u, err := req.URL.Parse(loc)
		if err != nil {
			return nil, nil, fmt.Errorf("failed to parse Location header %q: %v", loc, err)
		}
		if sent >= maxRedirects {
			return nil, nil, fmt.Errorf("stopped after %d redirects", maxRedirects)
		}
		next := &http.Request{Method: method, URL: u, Header: make(http.Header, 3), Response: resp}
		if keepBody && first.GetBody != nil {
			if next.Body, err = first.GetBody(); err != nil {
				return nil, nil, err
			}
			next.ContentLength = first.ContentLength
		}
		for _, k := range [...]string{"User-Agent", "Content-Type"} {
			if v, ok := first.Header[k]; ok {
				next.Header[k] = v
			}
		}
		if req.URL.Scheme != "https" || u.Scheme != "http" {
			ref := *req.URL
			ref.User = nil
			next.Header["Referer"] = []string{ref.String()}
		}
		req = next
	}
}

// redirectBehavior reports how a response with the given status to a
// request with method is followed, as net/http decides it: the next hop's
// method, whether it keeps the body, and whether to follow at all. Every
// request the browser sends with a body can replay it through GetBody.
func redirectBehavior(method string, status int) (next string, withBody, redirect bool) {
	switch status {
	case 301, 302, 303:
		if method != http.MethodGet && method != http.MethodHead {
			method = http.MethodGet
		}
		return method, false, true
	case 307, 308:
		return method, true, true
	}
	return method, false, false
}

// send makes one request hop: it adds the jar's cookies for the hop's URL,
// calls the transport and keeps the cookies the response sets.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	if c.jar != nil {
		for _, ck := range c.jar.Cookies(req.URL) {
			req.AddCookie(ck)
		}
	}
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if rc := resp.Cookies(); len(rc) > 0 {
		if c.jar == nil {
			c.jar, _ = cookiejar.New(nil) // cannot fail with nil options
		}
		c.jar.SetCookies(req.URL, rc)
	}
	return resp, nil
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
	p.walk()
	var out []Link
	for _, a := range p.anchors {
		href, ok := a.Attr("href")
		if !ok || href == "" || strings.HasPrefix(href, "javascript:") || strings.HasPrefix(href, "#") {
			continue
		}
		u, err := resolve(p.URL, href)
		if err != nil {
			continue
		}
		if out == nil {
			out = make([]Link, 0, len(p.anchors))
		}
		out = append(out, Link{URL: u, Text: a.Text(), Node: a})
	}
	return out
}

// walk collects the page's form and a elements in one pass over the DOM.
func (p *Page) walk() {
	if p.walked {
		return
	}
	p.walked = true
	p.DOM.Walk(func(n *htmldom.Node) bool {
		if n.Type == htmldom.ElementNode {
			switch n.Tag {
			case "form":
				p.forms = append(p.forms, n)
			case "a":
				p.anchors = append(p.anchors, n)
			}
		}
		return true
	})
}

// resolve returns base.Parse(href) without parsing a plain path: href is
// plain when it is a single '/' followed by ASCII letters, digits, '-' and
// '_' in segments joined by single '/'. Parse resolves such an href to
// base's scheme, user and host with href as the path and nothing else set;
// every other href, with dots, escapes, a query, a fragment, a scheme or
// an authority, goes through Parse.
func resolve(base *url.URL, href string) (*url.URL, error) {
	if !plainPath(href) {
		return base.Parse(href)
	}
	return &url.URL{Scheme: base.Scheme, User: base.User, Host: base.Host, Path: href}, nil
}

func plainPath(s string) bool {
	if s == "" || s[0] != '/' {
		return false
	}
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '-', c == '_':
		case c == '/' && s[i-1] != '/':
		default:
			return false
		}
	}
	return true
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
