package browser

import (
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// transcriptHandler records, for every request it serves, what a site can
// see of it, and redirects or sets cookies on a few paths.
type transcriptHandler struct{ lines []string }

func (h *transcriptHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	h.lines = append(h.lines, fmt.Sprintf("%s %s%s ua=%q ct=%q ref=%q cookie=%q xff=%q len=%d body=%q",
		r.Method, r.Host, r.URL.RequestURI(), r.UserAgent(), r.Header.Get("Content-Type"),
		r.Referer(), r.Header.Get("Cookie"), r.Header.Get("X-Forwarded-For"), r.ContentLength, body))
	switch {
	case r.URL.Path == "/login":
		http.SetCookie(w, &http.Cookie{Name: "sid", Value: "s1", Path: "/"})
	case r.URL.Path == "/see-other":
		http.Redirect(w, r, "/done", http.StatusSeeOther)
		return
	case r.URL.Path == "/temporary":
		http.Redirect(w, r, "/echo?via=307", http.StatusTemporaryRedirect)
		return
	case r.URL.Path == "/away":
		http.Redirect(w, r, "http://other.test/landing", http.StatusFound)
		return
	case strings.HasPrefix(r.URL.Path, "/hops/"):
		n, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/hops/"))
		if n > 0 {
			http.Redirect(w, r, "/hops/"+strconv.Itoa(n-1), http.StatusFound)
			return
		}
	}
	fmt.Fprintf(w, "<p>%s</p>", r.URL.Path)
}

func transcriptClient(h http.Handler) *Client {
	return New(WithTransport(&ProxyTransport{
		Base:   &HandlerTransport{Handler: h},
		NextIP: func(string) netip.Addr { return netip.MustParseAddr("10.0.0.7") },
	}))
}

// The requests a handler sees — method, host, path, the browser's own
// headers, the jar's cookies, the proxy's stamp and the body — across
// cookies, a 303 after a POST, a 307 that replays its POST and a redirect
// to another host.
func TestHandlerSeesSameRequests(t *testing.T) {
	h := &transcriptHandler{}
	c := transcriptClient(h)
	form := url.Values{"email": {"a@b.test"}, "pw": {"x y"}}
	steps := []func() (*Page, error){
		func() (*Page, error) { return c.Get("http://site.test/login") },
		func() (*Page, error) { return c.Post("http://site.test/see-other", form) },
		func() (*Page, error) { return c.Post("http://site.test/temporary", form) },
		func() (*Page, error) { return c.Get("http://site.test/away") },
	}
	var finals []string
	for i, step := range steps {
		p, err := step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		finals = append(finals, fmt.Sprintf("%d %s", p.StatusCode, p.URL))
	}
	const ua = "Mozilla/5.0 (compatible; tripwire-crawler/1.0)"
	const ct = "application/x-www-form-urlencoded"
	want := []string{
		`GET site.test/login ua="` + ua + `" ct="" ref="" cookie="" xff="10.0.0.7" len=0 body=""`,
		`POST site.test/see-other ua="` + ua + `" ct="` + ct + `" ref="" cookie="sid=s1" xff="10.0.0.7" len=23 body="email=a%40b.test&pw=x+y"`,
		`GET site.test/done ua="` + ua + `" ct="` + ct + `" ref="http://site.test/see-other" cookie="sid=s1" xff="10.0.0.7" len=0 body=""`,
		`POST site.test/temporary ua="` + ua + `" ct="` + ct + `" ref="" cookie="sid=s1" xff="10.0.0.7" len=23 body="email=a%40b.test&pw=x+y"`,
		`POST site.test/echo?via=307 ua="` + ua + `" ct="` + ct + `" ref="http://site.test/temporary" cookie="sid=s1" xff="10.0.0.7" len=23 body="email=a%40b.test&pw=x+y"`,
		`GET site.test/away ua="` + ua + `" ct="" ref="" cookie="sid=s1" xff="10.0.0.7" len=0 body=""`,
		`GET other.test/landing ua="` + ua + `" ct="" ref="http://site.test/away" cookie="" xff="10.0.0.7" len=0 body=""`,
	}
	if got := strings.Join(h.lines, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("handler saw:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	wantFinals := []string{
		"200 http://site.test/login",
		"200 http://site.test/done",
		"200 http://site.test/echo?via=307",
		"200 http://other.test/landing",
	}
	if got := strings.Join(finals, "\n"); got != strings.Join(wantFinals, "\n") {
		t.Errorf("final pages:\n%s\nwant:\n%s", got, strings.Join(wantFinals, "\n"))
	}
	if c.PageLoads() != len(steps) {
		t.Errorf("PageLoads = %d, want %d: a redirect is part of its fetch", c.PageLoads(), len(steps))
	}
}

// A fetch follows nine redirects in a row and fails on the tenth, as
// net/http's default policy does.
func TestRedirectLimit(t *testing.T) {
	h := &transcriptHandler{}
	c := transcriptClient(h)
	p, err := c.Get("http://site.test/hops/9")
	if err != nil {
		t.Fatalf("nine redirects: %v", err)
	}
	if p.URL.Path != "/hops/0" || len(h.lines) != 10 {
		t.Fatalf("nine redirects ended at %s after %d requests", p.URL, len(h.lines))
	}
	h.lines = nil
	if _, err := c.Get("http://site.test/hops/10"); err == nil || !strings.Contains(err.Error(), "stopped after 10 redirects") {
		t.Fatalf("ten redirects: err = %v, want the redirect limit", err)
	}
	if len(h.lines) != 10 {
		t.Fatalf("ten redirects sent %d requests, want 10", len(h.lines))
	}
}

// A response that sets no cookie leaves the session without a jar, and
// the first cookie a site sets is sent back from then on.
func TestJarCreatedByFirstCookie(t *testing.T) {
	h := &transcriptHandler{}
	c := transcriptClient(h)
	if _, err := c.Get("http://site.test/home"); err != nil {
		t.Fatal(err)
	}
	if c.jar != nil {
		t.Fatal("a response without Set-Cookie created the jar")
	}
	for _, path := range []string{"/login", "/home"} {
		if _, err := c.Get("http://site.test" + path); err != nil {
			t.Fatal(err)
		}
	}
	if c.jar == nil || !strings.Contains(h.lines[2], `cookie="sid=s1"`) {
		t.Fatalf("cookie not sent after the first Set-Cookie: %s", h.lines[2])
	}
}

// seenRequest is what a handler can observe of a request.
type seenRequest struct {
	Method        string
	URL           url.URL
	Host          string
	Header        http.Header
	ContentLength int64
	Body          string
}

type capturingHandler struct{ last seenRequest }

func (h *capturingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	h.last = seenRequest{r.Method, *r.URL, r.Host, r.Header.Clone(), r.ContentLength, string(body)}
	fmt.Fprint(w, `<form action="/next"><input name="q"></form>`)
}

// Submit builds its request from the form's resolved action, and a handler
// sees exactly the request http.NewRequest builds from that URL's string:
// method, URL, Host, headers, length and body, for GET and POST forms.
func TestSubmitRequestMatchesNewRequest(t *testing.T) {
	const inputs = `<input name="email" value="a@b.test"><input name="pw" value="x y">`
	cases := []struct{ name, action, inputs string }{
		{"plain path", "/signup", inputs},
		{"relative with dot segments", "../a/./b/../join", inputs},
		{"query", "/join?ref=home&x=1", inputs},
		{"fragment", "/join#top", inputs},
		{"escapes", "/sign%20up/%7Euser/a%2Fb", inputs},
		{"empty port", "http://x.test:/a", inputs},
		{"empty action", "", inputs},
		{"no fields", "/join", ""},
	}
	for _, tc := range cases {
		for _, method := range []string{"GET", "POST"} {
			t.Run(tc.name+"/"+method, func(t *testing.T) {
				page := fmt.Sprintf(`<form action="%s" method="%s">%s</form>`, tc.action, method, tc.inputs)
				h := &capturingHandler{}
				c := New(WithTransport(&HandlerTransport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/dir/page" && r.Method == "GET" && r.URL.RawQuery == "" {
						fmt.Fprint(w, page)
						return
					}
					h.ServeHTTP(w, r)
				})}))
				p, err := c.Get("http://x.test/dir/page")
				if err != nil {
					t.Fatal(err)
				}
				sub := p.Forms()[0].Fill()
				if _, err := c.Submit(sub); err != nil {
					t.Fatal(err)
				}
				got := h.last

				u := *p.Forms()[0].Action
				var body io.Reader
				if method == "POST" {
					body = strings.NewReader(sub.Values().Encode())
				} else {
					u.RawQuery = sub.Values().Encode()
				}
				ref, err := http.NewRequest(method, u.String(), body)
				if err != nil {
					t.Fatal(err)
				}
				if method == "POST" {
					ref.Header.Set("Content-Type", "application/x-www-form-urlencoded")
				}
				if _, err := c.do(ref); err != nil {
					t.Fatal(err)
				}
				if want := h.last; !reflect.DeepEqual(got, want) {
					t.Errorf("Submit sent\n%+v\nhttp.NewRequest(%q) sends\n%+v", got, u.String(), want)
				}
			})
		}
	}
}
