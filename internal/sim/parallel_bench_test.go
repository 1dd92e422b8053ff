package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tripwire/internal/identity"
	"tripwire/internal/obs"
)

// benchWaveSites is how many sites one benchmark iteration crawls.
const benchWaveSites = 2300

// bench10kUniverse / bench10kWave size the large-universe variant: a 10k-site
// web of which one wave touches ~10%, spread across the rank space. The point
// is not raw throughput but that cost — materialization and heap — tracks the
// crawled subset, not the universe.
const (
	bench10kUniverse = 10000
	bench10kWave     = 1024
)

// benchCrawlGrid measures crawl throughput of one registration wave at
// several worker counts. Each iteration gets a fresh pilot (a site can
// only be first-registered once) built outside the timer; the timed region
// is exactly what a wave event executes: serial identity allocation, the
// sharded crawl, the rank-order merge, and the mail drain.
//
// Real crawling is dominated by network round trips, not CPU, so the
// benchmark emulates a 1ms RTT per page load (Config.NetLatency). The
// speedup from extra workers is therefore latency overlap — which scales
// with worker count on any machine, including single-core CI boxes where a
// purely CPU-bound benchmark could never show one. So pages/s mostly
// measures overlapped sleep, and cpu-s/page (process user+system CPU per
// page load, timed region only) reports the CPU work apart from it.
//
// warm pre-materializes and pre-renders the whole universe, so the timed
// region is the crawl engine alone (both are deterministic site functions).
// The 10k variant leaves warm off: lazy materialization under crawl load is
// exactly what it exists to demonstrate, so it reports materialized-sites
// and post-wave live heap alongside throughput.
//
// withMetrics attaches a live obs.Registry, so comparing the two 2.3k
// benchmarks in one run (cmd/tripwire-bench -assert-overhead) bounds the
// observability layer's hot-path cost.
func benchCrawlGrid(b *testing.B, numSites, waveSites int, warm, withMetrics bool) {
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var pages, materialized int64
			var cpu float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := SmallConfig()
				cfg.Web.NumSites = numSites
				cfg.Workers = workers
				cfg.NetLatency = time.Millisecond
				if withMetrics {
					cfg.Metrics = obs.New()
				}
				p := NewPilot(cfg)
				// Pre-provision so on-demand provisioning (identical work at
				// every worker count) stays out of the hot loop.
				p.provisionIdentities(waveSites+50, identity.Hard)
				p.provisionIdentities(waveSites/2, identity.Easy)
				if warm {
					p.Universe.WarmRender()
				}
				stride := numSites / waveSites
				ranks := make([]rankAt, waveSites)
				for r := 0; r < waveSites; r++ {
					ranks[r] = rankAt{rank: r*stride + 1, at: cfg.Start}
				}
				cpu0 := cpuSeconds()
				b.StartTimer()
				p.runWave(ranks, false, "bench")
				b.StopTimer()
				cpu += cpuSeconds() - cpu0
				for _, a := range p.Attempts {
					pages += int64(a.PageLoad)
				}
				materialized = int64(p.Universe.MaterializedSites())
				b.StartTimer()
			}
			b.ReportMetric(float64(waveSites)*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
			b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/s")
			if pages > 0 {
				b.ReportMetric(cpu/float64(pages), "cpu-s/page")
			}
			if !warm {
				// Lazy-materialization evidence: how much of the universe the
				// wave actually derived, and the live heap it retains.
				b.StopTimer()
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(materialized), "materialized-sites")
				b.ReportMetric(float64(ms.HeapAlloc)/1e6, "heap-MB")
				b.StartTimer()
			}
		})
	}
}

// BenchmarkParallelCrawl is the baseline: full 2.3k universe, no registry.
func BenchmarkParallelCrawl(b *testing.B) {
	benchCrawlGrid(b, benchWaveSites, benchWaveSites, true, false)
}

// BenchmarkParallelCrawlMetrics is the same wave with live telemetry; the
// pages/s gap against BenchmarkParallelCrawl is the observability tax,
// asserted < 3% by `make bench-overhead`.
func BenchmarkParallelCrawlMetrics(b *testing.B) {
	benchCrawlGrid(b, benchWaveSites, benchWaveSites, true, true)
}

// BenchmarkParallelCrawl10k crawls a ~10% wave of a 10k-site universe with
// lazy materialization live, demonstrating that per-wave cost is O(sites
// crawled), not O(universe).
func BenchmarkParallelCrawl10k(b *testing.B) {
	benchCrawlGrid(b, bench10kUniverse, bench10kWave, false, false)
}
