package webgen

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// crawlablePaths lists the GET pages the render cache covers for a site.
func crawlablePaths(s *Site) []string {
	paths := []string{"/", "/about", "/contact", "/login", "/no-such-page"}
	if s.HasRegistration {
		paths = append(paths, s.RegPath)
	}
	return paths
}

func getPage(t *testing.T, u *Universe, host, path string) string {
	t.Helper()
	w := httptest.NewRecorder()
	u.ServeHTTP(w, httptest.NewRequest("GET", "http://"+host+path, nil))
	return w.Body.String()
}

// TestRenderCacheByteIdentical proves the render cache is invisible:
// every cacheable page — including registration pages whose CSRF tokens
// and CAPTCHA challenges are spliced in at serve time — must be
// byte-identical to a from-scratch render, whether served once or
// repeatedly, by one worker or eight concurrently.
func TestRenderCacheByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 150
	cfg.Seed = 11
	cached := Generate(cfg)
	uncached := Generate(cfg)
	uncached.disableRenderCache = true

	type pageKey struct{ host, path string }
	want := make(map[pageKey]string)
	for _, s := range uncached.Sites() {
		if s.LoadFailure {
			continue
		}
		for _, p := range crawlablePaths(s) {
			want[pageKey{s.Domain, p}] = getPage(t, uncached, s.Domain, p)
		}
	}
	if len(want) == 0 {
		t.Fatal("no pages collected")
	}

	for _, workers := range []int{1, 8} {
		keys := make(chan pageKey, len(want))
		for k := range want {
			keys <- k
		}
		close(keys)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var mismatches int
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range keys {
					// Serve twice: the first fill may miss, the second must
					// hit — both have to match the uncached render.
					for pass := 0; pass < 2; pass++ {
						got := getPage(t, cached, k.host, k.path)
						if got != want[k] {
							mu.Lock()
							if mismatches < 3 {
								t.Errorf("workers=%d pass=%d: %s%s differs from uncached render", workers, pass, k.host, k.path)
							}
							mismatches++
							mu.Unlock()
						}
					}
				}
			}()
		}
		wg.Wait()
		if mismatches > 0 {
			t.Fatalf("workers=%d: %d cached pages differed", workers, mismatches)
		}
	}
}

// TestRenderCacheRegistrationTokens spot-checks that the spliced dynamic
// values are real: a cached registration page still carries the site's
// valid CSRF token, not a leftover slot sentinel.
func TestRenderCacheRegistrationTokens(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 150
	cfg.Seed = 11
	u := Generate(cfg)
	checked := 0
	for _, s := range u.Sites() {
		if s.LoadFailure || !s.HasRegistration || s.ExternalAuthOnly || s.JSForm {
			continue
		}
		for pass := 0; pass < 2; pass++ { // miss then hit
			body := getPage(t, u, s.Domain, s.RegPath)
			if idx := strings.IndexByte(body, 0); idx >= 0 {
				t.Fatalf("%s%s: unspliced slot sentinel at byte %d", s.Domain, s.RegPath, idx)
			}
			if !strings.Contains(body, CSRFToken(s.Domain)) {
				t.Fatalf("%s%s: cached page lacks the site CSRF token", s.Domain, s.RegPath)
			}
		}
		checked++
		if checked >= 20 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no registration pages checked")
	}
}
