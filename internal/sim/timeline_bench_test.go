package sim

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"tripwire/internal/attacker"
	"tripwire/internal/emailprovider"
	"tripwire/internal/geo"
	"tripwire/internal/identity"
	"tripwire/internal/imap"
	"tripwire/internal/simclock"
	"tripwire/internal/webgen"
)

// benchTimelineDomains / benchTimelineAccounts size the attacker-only
// timeline benchmark: breached plaintext sites whose dumps all crack to
// valid provider credentials, so every account produces a long stream of
// keyed stuffing events (real IMAP logins over in-memory conns).
const (
	benchTimelineDomains  = 24
	benchTimelineAccounts = 1200
	benchTimelineDays     = 120
	// benchTimelineLatency emulates the proxy-network round trip each login
	// attempt costs (Stuffer.Latency). Real stuffing is latency-bound; the
	// speedup from extra timeline workers is latency overlap, which scales
	// with worker count on any machine — including single-core CI boxes
	// where a purely CPU-bound benchmark could never show one (the same
	// reasoning as Config.NetLatency in the crawl benchmark).
	benchTimelineLatency = 500 * time.Microsecond
)

// buildTimelineBench assembles the attacker-only fixture: provider,
// stuffer, and a campaign with every domain breached in the first hours.
// The alignment grain packs independent accounts' visits onto shared
// timestamps, so each stuffing epoch is wide enough to keep the worker
// pool busy.
func buildTimelineBench(workers int) (*simclock.Epochs, time.Time) {
	start := date(2015, 6, 1)
	end := start.Add(benchTimelineDays * 24 * time.Hour)
	clock := simclock.New(start)
	sched := simclock.NewScheduler(clock)
	p := emailprovider.New(ProviderDomain)
	p.Now = clock.Now
	pool := attacker.NewProxyPool(geo.NewSpace(), 5, 0.25)
	stuffer := attacker.NewStuffer(imap.NewServer(p), pool, clock.Now)
	stuffer.Latency = benchTimelineLatency
	cfg := attacker.DefaultCampaignConfig(end)
	// Of the grains tried (1 h, 24 h, 7 d, 14 d), 14 d scaled best at 8 and 16 workers.
	cfg.Align = 14 * 24 * time.Hour
	camp := attacker.NewCampaign(cfg, sched, stuffer, p)

	gen := identity.NewGenerator(ProviderDomain, 17)
	per := benchTimelineAccounts / benchTimelineDomains
	for d := 0; d < benchTimelineDomains; d++ {
		store := webgen.NewStore(webgen.StorePlaintext)
		for a := 0; a < per; a++ {
			id := gen.New(identity.Easy)
			if err := p.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
				continue
			}
			local, _, _ := strings.Cut(id.Email, "@")
			_, _ = store.Create(local, id.Email, id.Password, "", start)
		}
		camp.Breach(fmt.Sprintf("bench-site%03d.test", d), store, start.Add(time.Duration(d%36)*time.Hour))
	}
	ep := &simclock.Epochs{
		Sched:      sched,
		Workers:    workers,
		Sequencers: []simclock.Sequencer{p, stuffer},
	}
	return ep, end
}

// BenchmarkTimeline measures timeline engine throughput (events/s) at
// several worker counts over the attacker-heavy fixture, plus the quality
// metrics the bench harness gates: allocs/event (allocations per fired
// event, timed region only), heap-MB (the post-GC live heap after the
// last iteration's run, with its provider and stuffer still reachable)
// and scaling-eff (events/s per worker relative to the workers=1 run of
// the same bench invocation). events/s
// mostly measures how well workers overlap the emulated latency, so
// cpu-s/event (process user+system CPU per fired event, timed region
// only) reports the CPU work apart from it. The fixture is rebuilt
// outside the timer each iteration (a breach only happens once); the
// timed region is exactly the epoch loop RunContext drives.
func BenchmarkTimeline(b *testing.B) {
	var baseEventsPerSec float64
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			var mallocs uint64
			var cpu, heap float64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ep, end := buildTimelineBench(workers)
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				cpu0 := cpuSeconds()
				b.StartTimer()
				events += int64(ep.RunUntil(end))
				b.StopTimer()
				cpu += cpuSeconds() - cpu0
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - m0
				// The live heap while ep still reaches the provider and the
				// stuffer, so it covers the login logs the run filled. The
				// second collection empties sync.Pool victim caches, whose
				// size follows the worker count's scheduling.
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				heap = float64(ms.HeapAlloc) / 1e6
				ep.Close()
				b.StartTimer()
			}
			b.StopTimer()
			evs := float64(events) / b.Elapsed().Seconds()
			b.ReportMetric(evs, "events/s")
			if events > 0 {
				b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
				b.ReportMetric(cpu/float64(events), "cpu-s/event")
			}
			b.ReportMetric(heap, "heap-MB")
			if workers == 1 {
				baseEventsPerSec = evs
			} else if baseEventsPerSec > 0 {
				b.ReportMetric(evs/(baseEventsPerSec*float64(workers)), "scaling-eff")
			}
		})
	}
}

// cpuSeconds is the process's user+system CPU so far, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
