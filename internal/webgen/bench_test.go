package webgen

import (
	"net/http/httptest"
	"testing"

	"tripwire/internal/captcha"
)

// benchUniverse builds a small deterministic web and picks an English site
// with an ordinary (non-JS, non-SSO) registration form to serve.
func benchUniverse(b *testing.B) (*Universe, *Site) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.NumSites = 200
	cfg.Seed = 7
	u := Generate(cfg)
	for _, s := range u.Sites() {
		if s.Eligible() && !s.JSForm && !s.ObscureRegLink && s.Captcha == captcha.None {
			return u, s
		}
	}
	b.Fatal("no plain eligible site in bench universe")
	return nil, nil
}

func serve(b *testing.B, u *Universe, host, path string) string {
	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "http://"+host+path, nil)
	u.ServeHTTP(w, r)
	if w.Code != 200 {
		b.Fatalf("GET %s%s = %d", host, path, w.Code)
	}
	return w.Body.String()
}

// BenchmarkServePage measures what one crawler page-load costs the
// synthetic web: the home page (link discovery) and the registration page
// (form rendering), the two page kinds every registration attempt fetches.
func BenchmarkServePage(b *testing.B) {
	u, site := benchUniverse(b)
	b.Run("home", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, u, site.Domain, "/")
		}
	})
	b.Run("registration", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, u, site.Domain, site.RegPath)
		}
	})
}

// BenchmarkServePageCaptcha serves the registration page of an
// image-CAPTCHA site. Its challenge is drawn from an RNG seeded by the site,
// so the page comes finished from the render cache, like any other
// registration page.
func BenchmarkServePageCaptcha(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumSites = 400
	cfg.Seed = 7
	u := Generate(cfg)
	var site *Site
	for _, s := range u.Sites() {
		if s.Eligible() && !s.JSForm && s.Captcha == captcha.Image {
			site = s
			break
		}
	}
	if site == nil {
		b.Fatal("no image-captcha site in bench universe")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, u, site.Domain, site.RegPath)
	}
}

var digestSink [32]byte

// BenchmarkStrongDigest times the strong hash per digest: the
// sha256.Sum256 loop every CPU runs, a lone StrongDigest and a
// StrongDigest2 pair, which with SHA-NI advance in registers.
func BenchmarkStrongDigest(b *testing.B) {
	const salt = "salt-site00042.test-00000001"
	for _, c := range []struct {
		name    string
		digests int
		fn      func()
	}{
		{"generic", 1, func() { digestSink = strongDigestGeneric("Website1", salt) }},
		{"lone", 1, func() { digestSink = StrongDigest("Website1", salt) }},
		{"pair", 2, func() { digestSink, _ = StrongDigest2("Website1", "Website2", salt) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.digests), "ns/digest")
		})
	}
}
