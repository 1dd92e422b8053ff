package distsweep_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tripwire"
	"tripwire/internal/distsweep"
)

// benchConfig mirrors sweep_test.BenchSweepConfig (external test packages
// cannot import one another): a latency-bound study — per-page RTT
// emulated with Config.NetLatency, internal pools pinned to one goroutine
// — so sweep-level fan-out is the only concurrency and the measured
// speedup is latency overlap, which scales with worker count even on a
// single-core CI box. Keeping the two configs identical makes
// BenchmarkDistSweep/workers=N directly comparable to
// BenchmarkSweep/parallel=N: the gap between them is the HTTP control
// plane's overhead, nothing else.
func benchConfig(seed int64) tripwire.Config {
	cfg := tripwire.SmallConfig()
	cfg.Seed = seed * 101
	cfg.Web.NumSites = 150
	cfg.NumUnused = 120
	cfg.NetLatency = 8 * time.Millisecond
	cfg.Workers = 1
	return cfg
}

// BenchmarkDistSweep measures distributed sweep throughput (seeds/s) with
// 1, 2, and 4 workers leasing seeds from one coordinator over loopback
// HTTP. One op is a whole sweep: coordinator boot, worker join, every
// seed leased, run, and aggregated.
func BenchmarkDistSweep(b *testing.B) {
	const seeds = 4
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coord, err := distsweep.NewCoordinator(distsweep.Options{
					N:        seeds,
					Scale:    "bench",
					LeaseTTL: time.Minute,
				})
				if err != nil {
					b.Fatal(err)
				}
				srv := httptest.NewServer(distsweep.Handler(coord))
				var wg sync.WaitGroup
				errs := make([]error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						worker := &distsweep.Worker{
							Client:    &distsweep.Client{BaseURL: srv.URL},
							Name:      fmt.Sprintf("w%d", w),
							ConfigFor: benchConfig,
							Poll:      5 * time.Millisecond,
						}
						errs[w] = worker.Run(context.Background())
					}(w)
				}
				wg.Wait()
				srv.Close()
				for w, err := range errs {
					if err != nil {
						b.Fatalf("worker %d: %v", w, err)
					}
				}
				if err := coord.Outcome().Failed(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*seeds)/b.Elapsed().Seconds(), "seeds/s")
		})
	}
}
