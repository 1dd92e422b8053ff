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
//	               [-checkpoint-dir DIR] [-resume FILE]
//
// Checkpoint/resume: with -checkpoint-dir the crawl runs in rank chunks
// and rewrites DIR/crawl-checkpoint.twsnap after each completed chunk.
// -resume FILE skips the checkpointed prefix outright — per-rank results
// are pure functions of (seed, rank), so no replay is needed — and crawls
// only the remaining ranks; the flags must match the checkpointed run.
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/crawler"
	"tripwire/internal/identity"
	"tripwire/internal/obs"
	"tripwire/internal/par"
	"tripwire/internal/snapshot"
	"tripwire/internal/webgen"
	"tripwire/internal/xrand"
)

func main() {
	numSites := flag.Int("sites", 2000, "number of sites in the generated web")
	from := flag.Int("from", 1, "first rank to crawl")
	to := flag.Int("to", 200, "last rank to crawl")
	seed := flag.Int64("seed", 1, "generation seed")
	workers := flag.Int("workers", 0, "concurrent crawl workers (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print one line per site")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the crawl to this file")
	memprofile := flag.String("memprofile", "", "write a post-crawl heap profile to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a post-crawl mutex-contention profile to this file")
	blockprofile := flag.String("blockprofile", "", "write a post-crawl goroutine-blocking profile to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /healthz on this address while crawling")
	metricsOut := flag.String("metrics-out", "", "dump the metrics registry here at exit (\"-\" = stdout, *.prom = Prometheus text, else JSON)")
	checkpointDir := flag.String("checkpoint-dir", "", "write crawl-checkpoint.twsnap here after every completed chunk of ranks")
	resume := flag.String("resume", "", "resume a crawl from this checkpoint; -sites/-from/-to/-seed must match the checkpointed run")
	flag.Parse()

	if *from < 1 || *to < *from {
		fmt.Fprintln(os.Stderr, "tripwire-crawl: invalid rank range")
		os.Exit(2)
	}
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-crawl:", err)
		os.Exit(1)
	}
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
			fmt.Fprintln(os.Stderr, "tripwire-crawl:", err)
			os.Exit(1)
		}
		defer func() { _ = shutdown() }()
		fmt.Fprintf(os.Stderr, "tripwire-crawl: metrics on http://%s/metrics\n", bound)
	}

	last := *to
	if last > *numSites {
		last = *numSites
	}
	n := last - *from + 1
	if n < 0 {
		n = 0
	}

	// Identities are drawn from one sequential generator stream, so mint
	// them before fanning out: slot i always gets the same identity.
	ids := make([]*identity.Identity, n)
	for i := range ids {
		ids[i] = gen.New(identity.Hard)
	}

	results := make([]crawler.Result, n)
	crawlRank := func(i int) {
		rank := *from + i
		site, _ := universe.SiteByRank(rank)
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: universe}))
		env := &crawler.Env{
			Rng:    xrand.New(xrand.Mix(*seed, int64(rank), 1)),
			Solver: solver.Derive(xrand.Mix(*seed, int64(rank), 2)),
			Sleep:  func(time.Duration) {},
		}
		results[i] = c.RegisterWith(env, b, "http://"+site.Domain+"/", ids[i])
	}
	// runRange crawls slots [lo, hi). Each slot is a pure function of
	// (seed, rank), so neither worker count nor chunking is observable.
	runRange := func(lo, hi int) {
		par.For(nw, hi-lo, func(i int) { crawlRank(lo + i) })
	}

	// Checkpoint/resume. Results are pure per rank, so resume skips the
	// checkpointed prefix outright instead of replaying it; the params
	// section refuses a resume under different flags.
	params := crawlParams{Sites: *numSites, From: *from, To: last, Seed: *seed}
	done := 0
	if *resume != "" {
		p, prev, err := readCrawlCheckpoint(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tripwire-crawl:", err)
			os.Exit(1)
		}
		if p != params {
			fmt.Fprintf(os.Stderr, "tripwire-crawl: checkpoint was taken with -sites %d -from %d -to %d -seed %d; refusing to mix\n",
				p.Sites, p.From, p.To, p.Seed)
			os.Exit(2)
		}
		done = copy(results, prev)
		fmt.Fprintf(os.Stderr, "tripwire-crawl: resumed %d of %d ranks from %s\n", done, n, *resume)
	}

	start := time.Now()
	if *checkpointDir != "" || *resume != "" {
		// Chunked execution: a checkpoint lands after every completed chunk,
		// holding the results of the finished prefix.
		const chunk = 256
		ckptPath := ""
		if *checkpointDir != "" {
			if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "tripwire-crawl:", err)
				os.Exit(1)
			}
			ckptPath = filepath.Join(*checkpointDir, "crawl-checkpoint.twsnap")
		}
		for lo := done; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			runRange(lo, hi)
			if ckptPath != "" {
				if err := snapshot.WriteFile(ckptPath, encodeCrawlCheckpoint(params, results[:hi])); err != nil {
					fmt.Fprintln(os.Stderr, "tripwire-crawl: checkpoint:", err)
					os.Exit(1)
				}
			}
		}
	} else {
		runRange(0, n)
	}
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
			fmt.Printf("%-16s rank=%-6d lang=%-3s %-30s %s\n",
				site.Domain, rank, site.Language, res.Code, res.Detail)
		}
	}

	total := 0
	for _, n := range counts {
		total += n
	}
	fmt.Printf("\nCrawled %d sites (ranks %d..%d) with %d workers in %v; %d identities exposed\n",
		total, *from, last, nw, elapsed.Round(time.Millisecond), exposed)
	for _, code := range []crawler.Code{
		crawler.CodeNoRegistration, crawler.CodeFieldsMissing,
		crawler.CodeSubmissionFailed, crawler.CodeOKSubmission,
		crawler.CodeSystemError,
	} {
		fmt.Printf("  %-30s %6d  %5.1f%%\n", code, counts[code], 100*float64(counts[code])/float64(total))
	}

	if *metricsOut != "" {
		if err := obs.WriteFile(*metricsOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, "tripwire-crawl: writing metrics:", err)
			os.Exit(1)
		}
		if *metricsOut != "-" {
			fmt.Fprintf(os.Stderr, "tripwire-crawl: metrics written to %s\n", *metricsOut)
		}
	}

	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-crawl:", err)
		os.Exit(1)
	}
	writeProfile(*mutexprofile, "mutex")
	writeProfile(*blockprofile, "block")
}

// writeProfile dumps a named runtime profile ("mutex", "block") at exit.
func writeProfile(path, name string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-crawl:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-crawl:", err)
		os.Exit(1)
	}
}
