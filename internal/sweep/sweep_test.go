package sweep_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tripwire"
	"tripwire/internal/sweep"
)

// tinyConfig shrinks the small-scale study to the quick-pilot size the sim
// tests use, keeping a multi-seed sweep affordable inside a unit test.
func tinyConfig(seed int64) tripwire.Config {
	cfg := tripwire.SmallConfig()
	cfg.Seed = seed * 101
	cfg.Web.NumSites = 400
	cfg.NumUnused = 300
	return cfg
}

// zeroWall strips the one wall-clock field from a result set. Wall is
// measurement metadata excluded from the byte-identity contract; every
// other field must match exactly.
func zeroWall(rs []sweep.SeedResult) []sweep.SeedResult {
	out := make([]sweep.SeedResult, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// TestSweepParallelByteIdentical pins the sweep's core contract: the
// aggregate summary (and every per-seed result) from a parallel sweep is
// byte-identical to the serial one — parallelism reorders only the
// streamed progress lines, never the outcome. Wall clock is the single
// exception: it is zeroed before comparison.
func TestSweepParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("eight quick pilots in -short mode")
	}
	run := func(parallel int) (*sweep.Outcome, string) {
		var progress bytes.Buffer
		out := sweep.Run(sweep.Options{
			N:         4,
			Parallel:  parallel,
			ConfigFor: tinyConfig,
			Progress:  &progress,
		})
		return out, progress.String()
	}
	serial, serialProg := run(1)
	par, parProg := run(4)

	if !reflect.DeepEqual(zeroWall(serial.Results), zeroWall(par.Results)) {
		t.Fatalf("per-seed results diverge between -parallel 1 and 4:\nserial: %+v\nparallel: %+v",
			serial.Results, par.Results)
	}
	a := (&sweep.Outcome{Results: zeroWall(serial.Results)}).Render("small")
	b := (&sweep.Outcome{Results: zeroWall(par.Results)}).Render("small")
	if a != b {
		t.Fatalf("rendered summaries differ:\nserial:\n%s\nparallel:\n%s", a, b)
	}
	for _, prog := range []string{serialProg, parProg} {
		if got := strings.Count(prog, "\n"); got != 4 {
			t.Fatalf("progress stream has %d lines, want one per seed (4):\n%s", got, prog)
		}
	}
	for _, r := range serial.Results {
		if r.Wall <= 0 {
			t.Fatalf("seed %d recorded no wall time: %+v", r.Seed, r)
		}
	}
	if !strings.Contains(a, "seed wall time s:") {
		t.Fatalf("Render is missing the wall-time row:\n%s", a)
	}
	if err := serial.Failed(); err != nil {
		t.Fatalf("clean sweep reported failure: %v", err)
	}
	if len(serial.Results) != 4 || serial.Results[0].Seed != 101 {
		t.Fatalf("unexpected results shape: %+v", serial.Results)
	}
}

// TestSweepFailedSurfacesErrors checks the exit-status plumbing: a seed
// whose study construction fails must surface through Failed.
func TestSweepFailedSurfacesErrors(t *testing.T) {
	out := sweep.Run(sweep.Options{
		N: 1,
		ConfigFor: func(seed int64) tripwire.Config {
			cfg := tinyConfig(seed)
			cfg.Web.NumSites = -1 // invalid: study carries a config error
			return cfg
		},
	})
	if err := out.Failed(); err == nil {
		t.Fatal("Failed() = nil for a sweep whose only seed errored")
	}
	if out.Results[0].Err == nil {
		t.Fatal("seed result did not record the study error")
	}
}

// BenchSweepConfig is the latency-bound study the sweep scaling
// benchmarks (here and in internal/distsweep) run per seed. Real studies
// are dominated by crawl network round trips, so the benchmark emulates a
// per-page RTT (Config.NetLatency) and pins each study's internal pools
// to one goroutine — the sweep-level pool is then the only concurrency,
// and the speedup it measures is latency overlap, which scales with
// worker count on any machine including single-core CI boxes.
//
// The previous BenchmarkSweep reported ~identical seeds/s at parallel=1
// and 4 for two compounding reasons this configuration removes: sweep.Run
// capped the pool at GOMAXPROCS (1 on the CI box — "parallel=4" silently
// ran serially), and the benchmark config had zero NetLatency, so even a
// real pool would have found no waiting to overlap on one core.
func BenchSweepConfig(seed int64) tripwire.Config {
	cfg := tinyConfig(seed)
	cfg.Web.NumSites = 150
	cfg.NumUnused = 120
	cfg.NetLatency = 8 * time.Millisecond
	cfg.Workers = 1
	return cfg
}

// BenchmarkSweep measures whole-study sweep throughput (seeds/s) at
// several pool sizes over latency-bound studies (see BenchSweepConfig).
func BenchmarkSweep(b *testing.B) {
	const seeds = 4
	for _, parallel := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := sweep.Run(sweep.Options{N: seeds, Parallel: parallel, ConfigFor: BenchSweepConfig})
				if err := out.Failed(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*seeds)/b.Elapsed().Seconds(), "seeds/s")
		})
	}
}
