package crawler

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/htmldom"
	"tripwire/internal/identity"
	"tripwire/internal/webgen"
	"tripwire/internal/xrand"
)

// An attempt gives back only the storage the crawler lent it: a page the
// caller loaded on the same client before the attempt still renders as a
// fresh parse of its bytes, and the client loads and renders pages after.
func TestRegisterKeepsCallersPages(t *testing.T) {
	ts := newTestSite(false)
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: ts.handler()}))
	before, err := b.Get("http://shop.test/login")
	if err != nil {
		t.Fatal(err)
	}
	want := htmldom.Render(htmldom.Parse(before.Raw))
	if res := newCrawler(nil).Register(b, "http://shop.test/", testIdentity()); res.Code != CodeOKSubmission {
		t.Fatalf("code = %v (%s)", res.Code, res.Detail)
	}
	if got := htmldom.Render(before.DOM); got != want {
		t.Fatal("the caller's page changed under the attempt")
	}
	if f := before.Forms(); len(f) != 1 || f[0].Fields[0].Name != "login" {
		t.Fatal("the caller's page lost its form")
	}
	after, err := b.Get("http://shop.test/signup")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := htmldom.Render(after.DOM), htmldom.Render(htmldom.Parse(after.Raw)); got != want {
		t.Fatal("a page loaded after the attempt differs from a fresh parse")
	}
	if got := htmldom.Render(before.DOM); got != want {
		t.Fatal("a later page overwrote the caller's earlier one")
	}
}

// Attempts on fresh clients, as a crawl makes one per site, parse into
// storage the crawler recycles: once the crawler is warm, an attempt on a
// fresh client allocates no more than one on a client that is reused and
// released after each attempt, which never takes new arena chunks. The
// budget is far below the 16 KB of node and attribute chunks a fresh
// client's own storage takes. Measured on the 2-CPU VM, per attempt on a
// fresh client: 12.0 KB, 0.9 KB above the reused client; 31.1 KB, 19.8 KB
// above it, when every fresh client parsed into storage of its own. The
// comparison is paired because the race detector inflates both figures
// alike, by dropping pooled buffers at random: under it the gap read
// 0.2–2.1 KB here and 21.8–22.8 KB with storage of its own.
func TestRegisterRecyclesStorageAcrossClients(t *testing.T) {
	ts := newTestSite(false)
	c := newCrawler(nil)
	id := testIdentity()
	newClient := func() *browser.Client {
		return browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: ts.handler()}))
	}
	attempt := func(b *browser.Client) {
		if res := c.Register(b, "http://shop.test/", id); res.Code != CodeOKSubmission {
			t.Fatalf("code = %v (%s)", res.Code, res.Detail)
		}
	}
	const attempts = 300
	perAttempt := func(next func() *browser.Client) float64 {
		attempt(next())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < attempts; i++ {
			b := next()
			attempt(b)
			b.Release()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / attempts
	}
	reused := newClient()
	warm := perAttempt(func() *browser.Client { return reused })
	fresh := perAttempt(newClient)
	t.Logf("per attempt: %.0f bytes on a fresh client, %.0f on a reused one", fresh, warm)
	const budget = 6 << 10
	if fresh-warm > budget {
		t.Errorf("an attempt on a fresh client allocates %.0f bytes more than one on a reused client, budget %d", fresh-warm, budget)
	}
}

// Eight goroutines share one Crawler, each running attempts on clients of
// its own, and every attempt's result equals the one a serial run gives
// for its site: concurrent attempts never parse into each other's lent
// storage. Run under -race, this is the crawler's pool-safety check.
func TestConcurrentAttemptsMatchSerial(t *testing.T) {
	const seed, sites, goroutines = 7, 400, 8
	universe := func() *webgen.Universe {
		cfg := webgen.DefaultConfig()
		cfg.NumSites = sites
		cfg.Seed = seed
		return webgen.Generate(cfg)
	}
	ids := make([]*identity.Identity, sites)
	gen := identity.NewGenerator("bigmail.test", seed+1)
	for i := range ids {
		ids[i] = gen.New(identity.Hard)
	}
	solver := captcha.NewService(0.15, 0.25, seed+2)
	crawl := func(c *Crawler, u *webgen.Universe, rank int) Result {
		site, _ := u.SiteByRank(rank)
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
		env := &Env{
			Rng:    xrand.New(xrand.Mix(seed, int64(rank), 1)),
			Solver: solver.Derive(xrand.Mix(seed, int64(rank), 2)),
			Sleep:  func(time.Duration) {},
		}
		return c.RegisterWith(env, b, "http://"+site.Domain+"/", ids[rank-1])
	}
	cfg := DefaultConfig()
	cfg.Seed = seed + 3

	serial := make([]Result, sites)
	c, u := New(cfg, solver), universe()
	for rank := 1; rank <= sites; rank++ {
		serial[rank-1] = crawl(c, u, rank)
	}

	got := make([]Result, sites)
	c, u = New(cfg, solver), universe()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rank := 1 + g; rank <= sites; rank += goroutines {
				got[rank-1] = crawl(c, u, rank)
			}
		}(g)
	}
	wg.Wait()
	ok := 0
	for i := range serial {
		if got[i] != serial[i] {
			t.Errorf("rank %d: concurrent %+v, serial %+v", i+1, got[i], serial[i])
		}
		if serial[i].Code == CodeOKSubmission {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no attempt succeeded: the comparison covers no registration")
	}
}
