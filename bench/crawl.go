package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/crawler"
	"tripwire/internal/htmldom"
	"tripwire/internal/identity"
	"tripwire/internal/obs"
	"tripwire/internal/webgen"
	"tripwire/internal/xrand"
)

// crawl registers one identity at every site of several paper-scale
// universes, seeds S..S+n-1, deriving every per-rank input exactly as
// cmd/tripwire-crawl does: identities from seed+1, the solver from seed+2,
// the crawler from seed+3, and each attempt's RNG and solver stream from
// xrand.Mix(seed, rank, 1|2). No attacker runs.
type crawl struct {
	tr              *tracer
	reg             *obs.Registry // crawler counters, shared by all universes
	sites           int
	universes       []*crawlUniverse
	crawled         int
	registerSamples []float64 // traced run: seconds per RegisterWith call
}

type crawlUniverse struct {
	seed    int64
	u       *webgen.Universe
	ids     []*identity.Identity
	solver  *captcha.Service
	c       *crawler.Crawler
	reg     *obs.Registry
	results []crawler.Result
}

func setupCrawl(seed int64, sz sizes, tr *tracer) (instance, error) {
	cr := &crawl{tr: tr, sites: sz.CrawlSites}
	if tr != nil {
		cr.reg = obs.New()
	}
	for i := 0; i < sz.CrawlUniverses; i++ {
		s := seed + int64(i)
		cfg := webgen.DefaultConfig()
		cfg.NumSites = sz.CrawlSites
		cfg.Seed = s
		end := tr.begin("webgen", "Generate")
		cu := &crawlUniverse{seed: s, u: webgen.Generate(cfg)}
		end()
		gen := identity.NewGenerator("bigmail.test", s+1)
		cu.ids = make([]*identity.Identity, sz.CrawlSites)
		for j := range cu.ids {
			cu.ids[j] = gen.New(identity.Hard)
		}
		cu.solver = captcha.NewService(0.15, 0.25, s+2)
		ccfg := crawler.DefaultConfig()
		ccfg.Seed = s + 3
		cu.c = crawler.New(ccfg, cu.solver)
		if tr != nil {
			// Universe counters are read through closures registered once
			// per name, so each universe needs a registry of its own.
			cu.reg = obs.New()
			cu.u.Observe(cu.reg)
			cu.c.Metrics = crawler.NewMetrics(cr.reg)
		}
		cr.universes = append(cr.universes, cu)
	}
	return cr, nil
}

func (cr *crawl) run(ctx context.Context) {
	for _, cu := range cr.universes {
		end := cr.tr.begin("crawler", fmt.Sprintf("crawl universe %d", cu.seed))
		cr.crawlUniverse(cu)
		end()
		cr.crawled += len(cu.results)
		cr.tr.addRegistry(cu.reg)
		// Only the results are needed from here on: free the materialized
		// sites and render cache before the next universe.
		cu.u, cu.ids = nil, nil
	}
}

// crawlUniverse crawls every rank on GOMAXPROCS workers, rank i going to
// worker i mod workers, as tripwire-crawl shards it.
func (cr *crawl) crawlUniverse(cu *crawlUniverse) {
	n := len(cu.ids)
	cu.results = make([]crawler.Result, n)
	workers := runtime.GOMAXPROCS(0)
	var handler http.Handler = cu.u
	var lanes []*laneStats
	if cr.tr != nil {
		lanes = make([]*laneStats, workers)
		for w := range lanes {
			lanes[w] = &laneStats{}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handler
			var ls *laneStats
			if lanes != nil {
				ls = lanes[w]
				h = &tracedHandler{next: handler, lane: ls}
			}
			for i := w; i < n; i += workers {
				rank := i + 1
				site, _ := cu.u.SiteByRank(rank)
				b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: h}))
				env := &crawler.Env{
					Rng:    xrand.New(xrand.Mix(cu.seed, int64(rank), 1)),
					Solver: cu.solver.Derive(xrand.Mix(cu.seed, int64(rank), 2)),
					Sleep:  func(time.Duration) {},
				}
				var t0 time.Time
				if ls != nil {
					t0 = time.Now()
				}
				cu.results[i] = cu.c.RegisterWith(env, b, "http://"+site.Domain+"/", cu.ids[i])
				if ls != nil {
					ls.register = append(ls.register, time.Since(t0).Seconds())
				}
			}
		}(w)
	}
	wg.Wait()
	for _, ls := range lanes {
		cr.tr.add("webgen.serve_s", ls.serve)
		cr.tr.add("htmldom.parse_s", ls.parse)
		cr.registerSamples = append(cr.registerSamples, ls.register...)
	}
}

// seed42Universe is what the first universe at -seed 42 must give, as
// `tripwire-crawl -sites 33634 -to 33634 -seed 42` reports it.
var seed42Universe = struct{ noRegistration, ok, exposed int }{25577, 3158, 4192}

func (cr *crawl) verify(c *checker) string {
	h := sha256.New()
	for k, cu := range cr.universes {
		c.check(fmt.Sprintf("universe %d: one result per site", cu.seed), len(cu.results) == cr.sites)
		var noReg, ok, exposed int
		fmt.Fprintf(h, "universe %d\n", cu.seed)
		for i, res := range cu.results {
			fmt.Fprintf(h, "%d %d %t\n", i+1, res.Code, res.Exposed)
			switch res.Code {
			case crawler.CodeNoRegistration:
				noReg++
			case crawler.CodeOKSubmission:
				ok++
			}
			if res.Exposed {
				exposed++
			}
		}
		if k == 0 && c.full && c.seed == defaultSeed {
			want := seed42Universe
			c.check(fmt.Sprintf("universe 42 gives %d/%d/%d no-registration/OK/exposed (got %d/%d/%d)",
				want.noRegistration, want.ok, want.exposed, noReg, ok, exposed),
				noReg == want.noRegistration && ok == want.ok && exposed == want.exposed)
		}
	}
	return c.digest(h)
}

func (cr *crawl) items() float64 { return float64(cr.crawled) }

func (cr *crawl) layers(tr *tracer) {
	tr.addRegistry(cr.reg)
	s := cr.registerSamples
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	tr.set("crawler.register_s", sum)
	tr.set("crawler.register_samples", float64(len(s)))
	tr.set("crawler.register_p50_ms", 1e3*percentile(s, 50))
	tr.set("crawler.register_p9999_ms", 1e3*percentile(s, 99.99))
}

func (cr *crawl) close() {}

// laneStats is one crawl worker's share of the traced measurements; each
// worker owns its lane, so recording takes no lock.
type laneStats struct {
	serve, parse float64
	register     []float64
}

// tracedHandler times the universe's ServeHTTP inside the browser's
// in-process transport and re-times htmldom.Parse over every body it
// served, after the serve has been timed.
type tracedHandler struct {
	next http.Handler
	lane *laneStats
	body []byte
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &teeWriter{ResponseWriter: w, buf: h.body[:0]}
	t0 := time.Now()
	h.next.ServeHTTP(tw, r)
	h.lane.serve += time.Since(t0).Seconds()
	h.body = tw.buf
	t1 := time.Now()
	htmldom.Parse(string(tw.buf))
	h.lane.parse += time.Since(t1).Seconds()
}

// teeWriter copies the response body as the handler writes it.
type teeWriter struct {
	http.ResponseWriter
	buf []byte
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	return t.ResponseWriter.Write(p)
}

func (t *teeWriter) WriteString(s string) (int, error) {
	t.buf = append(t.buf, s...)
	return io.WriteString(t.ResponseWriter, s)
}
