package browser

import (
	"fmt"
	"net/http"
	"net/netip"
	"strings"
	"testing"
)

// testHandler serves a small site for browser tests.
func testHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.SetCookie(w, &http.Cookie{Name: "session", Value: "abc123", Path: "/"})
		fmt.Fprint(w, `<html><head><title>Test Site</title></head><body>
			<a href="/about">About</a>
			<a href="relative/page">Rel</a>
			<a href="javascript:void(0)">JS</a>
			<a href="#frag">Frag</a>
			<a href="http://other.test/x">Other</a>
			</body></html>`)
	})
	mux.HandleFunc("/about", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html><body><p>about page</p></body></html>")
	})
	mux.HandleFunc("/redir", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/about", http.StatusFound)
	})
	mux.HandleFunc("/whoami", func(w http.ResponseWriter, r *http.Request) {
		c, err := r.Cookie("session")
		if err != nil {
			fmt.Fprint(w, "<p>no cookie</p>")
			return
		}
		fmt.Fprintf(w, "<p>cookie=%s</p>", c.Value)
	})
	mux.HandleFunc("/form", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body><form action="/submit" method="post">
			<input type="hidden" name="csrf" value="tok">
			<p><label for="em">Email</label><input type="text" name="em" id="em" required></p>
			<p><label>Password</label><input type="password" name="pw"></p>
			<p><input type="checkbox" name="tos" value="on"> <label>Agree</label></p>
			<select name="state"><option value="">--</option><option value="CA">CA</option></select>
			<input type="submit" value="Go">
			</form></body></html>`)
	})
	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm()
		fmt.Fprintf(w, "<p>csrf=%s em=%s pw=%s tos=%s state=%s</p>",
			r.PostFormValue("csrf"), r.PostFormValue("em"), r.PostFormValue("pw"),
			r.PostFormValue("tos"), r.PostFormValue("state"))
	})
	return mux
}

func testClient() *Client {
	return New(WithTransport(&HandlerTransport{Handler: testHandler()}))
}

func TestGetAndTitle(t *testing.T) {
	c := testClient()
	p, err := c.Get("http://site.test/")
	if err != nil {
		t.Fatal(err)
	}
	if !p.OK() || p.Title() != "Test Site" {
		t.Fatalf("status=%d title=%q", p.StatusCode, p.Title())
	}
	if c.PageLoads() != 1 {
		t.Fatalf("PageLoads = %d", c.PageLoads())
	}
}

func TestLinksResolvedAndFiltered(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/")
	links := p.Links()
	if len(links) != 3 {
		t.Fatalf("got %d links %v, want 3 (javascript: and #frag filtered)", len(links), links)
	}
	if links[0].URL.String() != "http://site.test/about" || links[0].Text != "About" {
		t.Fatalf("link[0] = %v %q", links[0].URL, links[0].Text)
	}
	if links[1].URL.String() != "http://site.test/relative/page" {
		t.Fatalf("relative resolution broken: %v", links[1].URL)
	}
	if links[2].URL.Host != "other.test" {
		t.Fatalf("absolute link broken: %v", links[2].URL)
	}
}

func TestRedirectFollowed(t *testing.T) {
	c := testClient()
	p, err := c.Get("http://site.test/redir")
	if err != nil {
		t.Fatal(err)
	}
	if p.URL.Path != "/about" || !strings.Contains(p.Raw, "about page") {
		t.Fatalf("redirect not followed: %v", p.URL)
	}
}

func TestCookiesPersistAcrossRequests(t *testing.T) {
	c := testClient()
	if _, err := c.Get("http://site.test/"); err != nil {
		t.Fatal(err)
	}
	p, err := c.Get("http://site.test/whoami")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Raw, "cookie=abc123") {
		t.Fatalf("cookie not sent: %s", p.Raw)
	}
	// A fresh session has its own jar.
	p2, _ := testClient().Get("http://site.test/whoami")
	if !strings.Contains(p2.Raw, "no cookie") {
		t.Fatal("cookie leaked across sessions")
	}
}

func TestFormExtraction(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/form")
	forms := p.Forms()
	if len(forms) != 1 {
		t.Fatalf("got %d forms", len(forms))
	}
	f := forms[0]
	if f.Method != "POST" || f.Action.Path != "/submit" {
		t.Fatalf("form meta: %s %v", f.Method, f.Action)
	}
	byName := map[string]Field{}
	for _, fld := range f.Fields {
		byName[fld.Name] = fld
	}
	if byName["csrf"].Type != "hidden" || byName["csrf"].Value != "tok" {
		t.Fatalf("hidden field: %+v", byName["csrf"])
	}
	if byName["em"].Label != "Email" || !byName["em"].Required {
		t.Fatalf("label-for association failed: %+v", byName["em"])
	}
	if byName["pw"].Type != "password" || byName["pw"].Label != "Password" {
		t.Fatalf("sibling label failed: %+v", byName["pw"])
	}
	if len(byName["state"].Options) != 2 {
		t.Fatalf("select options: %+v", byName["state"])
	}
}

// Forms are listed in document order and a control inside nested forms
// belongs to every enclosing form. A form finds label-for text only within
// its own subtree: the inner form does not see the outer form's label for
// b. An anchor inside a form is still a link.
func TestNestedForms(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>
			<form id="outer" action="/outer" method="POST">
			<input name="a" id="a"><label for="b">Bee</label>
			<form id="inner" action="inner/x?y=1" method="get">
			<input name="b" id="b"><label for="a">Ay</label><a href="/in-form">in form</a>
			</form>
			<textarea name="c">text</textarea>
			</form>
			<form action="/last" method="pOsT"><select name="s"><option>o1</option></select></form>
			</body></html>`)
	})
	c := New(WithTransport(&HandlerTransport{Handler: h}))
	p, err := c.Get("http://site.test/dir/page")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range p.Forms() {
		var fields []string
		for _, fld := range f.Fields {
			fields = append(fields, fld.Name+"="+fld.Label)
		}
		got = append(got, fmt.Sprintf("%s %s %s [%s]", f.Node.ID(), f.Method, f.Action, strings.Join(fields, " ")))
	}
	links := p.Links()
	if len(links) != 1 || links[0].URL.String() != "http://site.test/in-form" {
		t.Fatalf("links = %v", links)
	}
	want := []string{
		"outer POST http://site.test/outer [a=Ay b=Bee c=]",
		"inner GET http://site.test/dir/inner/x?y=1 [b=]",
		" POST http://site.test/last [s=]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("forms:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestFieldContext(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/form")
	f := p.Forms()[0]
	for _, fld := range f.Fields {
		if fld.Name == "em" {
			ctx := fld.Context()
			if !strings.Contains(ctx, "email") || !strings.Contains(ctx, "em") {
				t.Fatalf("Context() = %q", ctx)
			}
		}
	}
}

func TestSubmissionDefaultsAndOverrides(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/form")
	f := p.Forms()[0]
	sub := f.Fill().
		Set("em", "a@b.test").
		Set("pw", "secret").
		Check("tos").
		SelectLast("state")
	resp, err := c.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	want := "csrf=tok em=a@b.test pw=secret tos=on state=CA"
	if !strings.Contains(resp.Raw, want) {
		t.Fatalf("submitted values wrong:\n got %s\nwant %s", resp.Raw, want)
	}
}

func TestUncheckedCheckboxOmitted(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/form")
	sub := p.Forms()[0].Fill().Set("em", "x").Set("pw", "y")
	resp, _ := c.Submit(sub)
	if !strings.Contains(resp.Raw, "tos= ") {
		t.Fatalf("unchecked checkbox submitted a value: %s", resp.Raw)
	}
}

func TestProxyTransportStampsAndPins(t *testing.T) {
	var seen []string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, r.Header.Get("X-Forwarded-For"))
		fmt.Fprint(w, "<p>ok</p>")
	})
	calls := 0
	pt := &ProxyTransport{
		Base: &HandlerTransport{Handler: h},
		NextIP: func(host string) netip.Addr {
			calls++
			return netip.AddrFrom4([4]byte{10, 0, 0, byte(calls)})
		},
	}
	c := New(WithTransport(pt))
	c.Get("http://a.test/")
	c.Get("http://a.test/page2")
	c.Get("http://b.test/")
	if calls != 2 {
		t.Fatalf("NextIP called %d times, want 2 (one per host)", calls)
	}
	if seen[0] != seen[1] {
		t.Fatalf("same host saw different exits: %v", seen)
	}
	if seen[2] == seen[0] {
		t.Fatalf("different hosts shared an exit: %v", seen)
	}
	if ip, ok := pt.ExitIP("a.test"); !ok || ip.String() != seen[0] {
		t.Fatalf("ExitIP mismatch: %v %v", ip, ok)
	}
}

func TestHandlerTransportStatusAndBody(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, "<p>nope</p>")
			return
		}
		fmt.Fprint(w, "<p>hi</p>")
	})
	c := New(WithTransport(&HandlerTransport{Handler: h}))
	p, err := c.Get("http://x.test/missing")
	if err != nil {
		t.Fatal(err)
	}
	if p.StatusCode != 404 || !strings.Contains(p.Raw, "nope") {
		t.Fatalf("status=%d body=%q", p.StatusCode, p.Raw)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("x", 1000))
	})
	c := New(WithTransport(&HandlerTransport{Handler: h}))
	c.MaxBodyBytes = 100
	p, err := c.Get("http://x.test/")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Raw) != 100 {
		t.Fatalf("body length %d, want capped at 100", len(p.Raw))
	}
}
