package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tripwire/internal/identity"
	"tripwire/internal/obs"
	"tripwire/internal/stats"
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

// newBenchWave builds a fresh pilot for one benchmark wave (a site can
// only be first-registered once) over a numSites universe, and returns it
// with waveSites ranks spread across the universe. warm pre-materializes
// and pre-renders the whole universe, so the wave is the crawl engine
// alone (both are deterministic site functions); reg, when non-nil, is
// the pilot's live metrics registry.
func newBenchWave(numSites, waveSites, workers int, latency time.Duration, warm bool, reg *obs.Registry) (*Pilot, []rankAt) {
	cfg := SmallConfig()
	cfg.Web.NumSites = numSites
	cfg.Workers = workers
	cfg.NetLatency = latency
	cfg.Metrics = reg
	p := NewPilot(cfg)
	// Pre-provision so on-demand provisioning (identical work at every
	// worker count) stays out of the hot loop.
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
	return p, ranks
}

// pageLoads counts the page loads of every attempt p has recorded.
func pageLoads(p *Pilot) int64 {
	var pages int64
	for _, a := range p.Attempts {
		pages += int64(a.PageLoad)
	}
	return pages
}

// benchCrawlGrid measures crawl throughput of one registration wave at
// several worker counts. Each iteration gets a fresh pilot built outside
// the timer; the timed region is exactly what a wave event executes:
// serial identity allocation, the sharded crawl, the rank-order merge,
// and the mail drain.
//
// Real crawling is dominated by network round trips, not CPU, so the
// benchmark emulates a 1ms RTT per page load (Config.NetLatency). The
// speedup from extra workers is therefore latency overlap — which scales
// with worker count on any machine, including single-core CI boxes where a
// purely CPU-bound benchmark could never show one. So pages/s mostly
// measures overlapped sleep, and cpu-s/page (process user+system CPU per
// page load, timed region only) reports the CPU work apart from it.
//
// The 2.3k benchmark warms its universe; the 10k variant leaves warm off:
// lazy materialization under crawl load is exactly what it exists to
// demonstrate, so it reports materialized-sites and post-wave live heap
// alongside throughput.
func benchCrawlGrid(b *testing.B, numSites, waveSites int, warm bool) {
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var pages, materialized int64
			var cpu float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, ranks := newBenchWave(numSites, waveSites, workers, time.Millisecond, warm, nil)
				cpu0 := cpuSeconds()
				b.StartTimer()
				p.runWave(ranks, false, "bench")
				b.StopTimer()
				cpu += cpuSeconds() - cpu0
				pages += pageLoads(p)
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
	benchCrawlGrid(b, benchWaveSites, benchWaveSites, true)
}

// BenchmarkParallelCrawl10k crawls a ~10% wave of a 10k-site universe with
// lazy materialization live, demonstrating that per-wave cost is O(sites
// crawled), not O(universe).
func BenchmarkParallelCrawl10k(b *testing.B) {
	benchCrawlGrid(b, bench10kUniverse, bench10kWave, false)
}

// overheadBatch is how many sites BenchmarkMetricsOverhead crawls on one
// pilot before it switches to the other.
const overheadBatch = 50

// BenchmarkMetricsOverhead measures the observability layer's CPU tax on
// the crawl. Each iteration builds two pilots over the warmed 2.3k-site
// universe, one with a live obs.Registry, and crawls the same ranks on
// both at one worker with no emulated latency, so the work is CPU-bound.
// The pilots take turns batch by batch, alternating which goes first, and
// each batch's process CPU is timed. Host noise on a shared VM drifts
// over tens of milliseconds, so only batches crawled back to back are
// compared: metrics-cpu-% is the median over all batches of the metered
// batch's CPU over its unmetered twin's, less one, and the median also
// discards the batches a garbage collection landed in. allocs/wave and
// metered-allocs/wave are each side's mean allocations per iteration.
// `make bench-overhead` gates both through cmd/tripwire-bench
// -assert-overhead.
func BenchmarkMetricsOverhead(b *testing.B) {
	var ratios []float64
	var mallocs [2]uint64 // [0] metrics off, [1] metrics on
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var pilots [2]*Pilot
		var ranks []rankAt
		pilots[0], ranks = newBenchWave(benchWaveSites, benchWaveSites, 1, 0, true, nil)
		pilots[1], _ = newBenchWave(benchWaveSites, benchWaveSites, 1, 0, true, obs.New())
		b.StartTimer()
		for k := 0; k*overheadBatch < len(ranks); k++ {
			part := ranks[k*overheadBatch : min((k+1)*overheadBatch, len(ranks))]
			var cpu [2]float64
			for j := 0; j < 2; j++ {
				side := (i + k + j) % 2
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				cpu0 := cpuSeconds()
				pilots[side].runWave(part, false, "bench")
				cpu[side] = cpuSeconds() - cpu0
				runtime.ReadMemStats(&ms)
				mallocs[side] += ms.Mallocs - m0
			}
			ratios = append(ratios, cpu[1]/cpu[0])
		}
	}
	b.ReportMetric(100*(stats.Median(ratios)-1), "metrics-cpu-%")
	b.ReportMetric(float64(mallocs[0])/float64(b.N), "allocs/wave")
	b.ReportMetric(float64(mallocs[1])/float64(b.N), "metered-allocs/wave")
}
