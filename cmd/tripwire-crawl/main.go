// Command tripwire-crawl exercises the registration crawler alone: it
// generates the synthetic web, crawls a rank range, and reports the
// termination code for every site plus the Figure-1 distribution.
//
// Crawls are sharded across -workers goroutines. Output is identical for a
// given seed regardless of worker count: identities are minted serially in
// rank order, every per-site random draw derives from (seed, rank), and
// results are reported in rank order.
//
// Usage:
//
//	tripwire-crawl [-sites N] [-from R] [-to R] [-seed N] [-workers N] [-v]
//	               [-cpuprofile FILE] [-memprofile FILE]
//	               [-mutexprofile FILE] [-blockprofile FILE]
//	               [-metrics-addr HOST:PORT] [-metrics-out FILE]
//
// The range runs from -from to -to, clipped to the last site; a range
// that is empty or starts past the last site is refused with exit code 2.
//
// The profile flags capture the crawl hot path for pprof: -cpuprofile
// records the whole crawl, -memprofile writes a post-crawl heap profile,
// and -mutexprofile / -blockprofile record lock contention and blocking
// during the crawl — the substrate-scaling diagnostics for high worker
// counts.
// The metrics flags attach the observability registry: -metrics-addr
// serves /metrics live during the crawl, -metrics-out dumps crawler and
// webgen telemetry (attempts, termination codes, classify- and
// render-cache hit rates) at exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/crawler"
	"tripwire/internal/identity"
	"tripwire/internal/obs"
	"tripwire/internal/par"
	"tripwire/internal/webgen"
	"tripwire/internal/xrand"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command's body, returning its exit code so that deferred
// cleanups, the profiles' included, run before the process exits.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("tripwire-crawl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	numSites := fs.Int("sites", 2000, "number of sites in the generated web")
	from := fs.Int("from", 1, "first rank to crawl")
	to := fs.Int("to", 200, "last rank to crawl")
	seed := fs.Int64("seed", 1, "generation seed")
	workers := fs.Int("workers", 0, "concurrent crawl workers (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print one line per site")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the crawl to this file")
	memprofile := fs.String("memprofile", "", "write a post-crawl heap profile to this file")
	mutexprofile := fs.String("mutexprofile", "", "write a post-crawl mutex-contention profile to this file")
	blockprofile := fs.String("blockprofile", "", "write a post-crawl goroutine-blocking profile to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /metrics.json and /healthz on this address while crawling")
	metricsOut := fs.String("metrics-out", "", "dump the metrics registry here at exit (\"-\" = stdout, *.prom = Prometheus text, else JSON)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *from < 1 || *to < *from || *from > *numSites {
		fmt.Fprintln(stderr, "tripwire-crawl: invalid rank range")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tripwire-crawl:", err)
		return 1
	}
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			code = fail(err)
		}
	}()
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}

	var reg *obs.Registry
	if *metricsAddr != "" || *metricsOut != "" {
		reg = obs.New()
	}

	webCfg := webgen.DefaultConfig()
	webCfg.NumSites = *numSites
	webCfg.Seed = *seed
	universe := webgen.Generate(webCfg)

	gen := identity.NewGenerator("bigmail.test", *seed+1)
	solver := captcha.NewService(0.15, 0.25, *seed+2)
	ccfg := crawler.DefaultConfig()
	ccfg.Seed = *seed + 3
	c := crawler.New(ccfg, solver)

	if reg != nil {
		universe.Observe(reg)
		c.Metrics = crawler.NewMetrics(reg)
	}
	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer func() { _ = shutdown() }()
		fmt.Fprintf(stderr, "tripwire-crawl: metrics on http://%s/metrics\n", bound)
	}

	last := min(*to, *numSites)
	n := last - *from + 1

	// Identities are drawn from one sequential generator stream, so mint
	// them before fanning out: slot i always gets the same identity.
	ids := make([]*identity.Identity, n)
	for i := range ids {
		ids[i] = gen.New(identity.Hard)
	}

	// Each slot is a pure function of (seed, rank), so the worker count is
	// not observable in the results.
	results := make([]crawler.Result, n)
	start := time.Now()
	par.For(nw, n, func(i int) {
		rank := *from + i
		site, _ := universe.SiteByRank(rank)
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: universe}))
		env := &crawler.Env{
			Rng:    xrand.New(xrand.Mix(*seed, int64(rank), 1)),
			Solver: solver.Derive(xrand.Mix(*seed, int64(rank), 2)),
			Sleep:  func(time.Duration) {},
		}
		results[i] = c.RegisterWith(env, b, "http://"+site.Domain+"/", ids[i])
	})
	elapsed := time.Since(start)

	counts := make(map[crawler.Code]int)
	exposed := 0
	for i, res := range results {
		rank := *from + i
		counts[res.Code]++
		if res.Exposed {
			exposed++
		}
		if *verbose {
			site, _ := universe.SiteByRank(rank)
			fmt.Fprintf(stdout, "%-16s rank=%-6d lang=%-3s %-30s %s\n",
				site.Domain, rank, site.Language, res.Code, res.Detail)
		}
	}

	fmt.Fprintf(stdout, "\nCrawled %d sites (ranks %d..%d) with %d workers in %v; %d identities exposed\n",
		n, *from, last, nw, elapsed.Round(time.Millisecond), exposed)
	for _, code := range []crawler.Code{
		crawler.CodeNoRegistration, crawler.CodeFieldsMissing,
		crawler.CodeSubmissionFailed, crawler.CodeOKSubmission,
		crawler.CodeSystemError,
	} {
		fmt.Fprintf(stdout, "  %-30s %6d  %5.1f%%\n", code, counts[code], 100*float64(counts[code])/float64(n))
	}

	if *metricsOut != "" {
		if err := obs.WriteFile(*metricsOut, reg); err != nil {
			return fail(fmt.Errorf("writing metrics: %w", err))
		}
		if *metricsOut != "-" {
			fmt.Fprintf(stderr, "tripwire-crawl: metrics written to %s\n", *metricsOut)
		}
	}

	if err := writeProfile(*mutexprofile, "mutex"); err != nil {
		return fail(err)
	}
	if err := writeProfile(*blockprofile, "block"); err != nil {
		return fail(err)
	}
	return 0
}

// writeProfile dumps a named runtime profile ("mutex", "block") to path,
// if path is set.
func writeProfile(path, name string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
