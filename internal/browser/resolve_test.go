package browser

import (
	"net/url"
	"reflect"
	"testing"
)

// resolveCases pairs base URLs with hrefs on both sides of the plain-path
// line: plain paths take resolve's shortcut, everything else goes through
// url.Parse.
var resolveCases = []struct {
	base, href string
	plain      bool
}{
	{"http://site.test/", "/about", true},
	{"http://site.test/a/b?q=1#f", "/register", true},
	{"https://user:pw@site.test:8080/x", "/users/new-account_2", true},
	{"http://site.test/", "/", true},
	{"http://site.test/", "/a/b/", true},
	{"http://site.test/", "/A-Z_09", true},
	{"mailto:someone@site.test", "/about", true},
	{"http://site.test/a/b", "/a/./b", false},
	{"http://site.test/a/b", "/a/../b", false},
	{"http://site.test/a/b", "/a.html", false},
	{"http://site.test/a/b", "//other.test/x", false},
	{"http://site.test/a/b", "/a//b", false},
	{"http://site.test/a/b", "/a%2Fb", false},
	{"http://site.test/a/b", "/search?q=x", false},
	{"http://site.test/a/b", "/page#top", false},
	{"http://site.test/a/b", "/a:b", false},
	{"http://site.test/a/b", "relative/page", false},
	{"http://site.test/a/b", "mailto:x@y.test", false},
	{"http://site.test/a/b", "", false},
	{"http://site.test/a/b", "/zhuce/注册", false},
	{"http://site.test/a/b", "/a b", false},
	{"http://site.test/a/b", "/%zz", false},
	{"http://site.test/a/b", "http://[::1", false},
}

func TestResolveMatchesParse(t *testing.T) {
	for _, tc := range resolveCases {
		if got := plainPath(tc.href); got != tc.plain {
			t.Errorf("plainPath(%q) = %v, want %v", tc.href, got, tc.plain)
		}
		base, err := url.Parse(tc.base)
		if err != nil {
			t.Fatal(err)
		}
		checkResolve(t, base, tc.href)
	}
}

func checkResolve(t *testing.T, base *url.URL, href string) {
	t.Helper()
	want, werr := base.Parse(href)
	got, gerr := resolve(base, href)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("resolve(%q, %q): err %v, Parse err %v", base, href, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(*got, *want) {
		t.Fatalf("resolve(%q, %q) = %#v, Parse gives %#v", base, href, *got, *want)
	}
}

// FuzzResolve checks that resolve and url.Parse agree field for field, and
// fail together, for any base URL and href.
func FuzzResolve(f *testing.F) {
	for _, tc := range resolveCases {
		f.Add(tc.base, tc.href)
	}
	f.Fuzz(func(t *testing.T, rawBase, href string) {
		base, err := url.Parse(rawBase)
		if err != nil {
			return
		}
		checkResolve(t, base, href)
	})
}
