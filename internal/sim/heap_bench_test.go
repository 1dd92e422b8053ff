package sim

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"
)

// The heap-envelope configuration: a full (short) study over a 1M-site
// universe whose batches register 2048 of those sites, with the login log
// capped at a small resident budget so the run must spill cold segments
// to disk. The point of the numbers: the universe is ~500x larger than
// the registered set, so any O(universe) heap cost — eager
// materialization, a full login log held resident — blows the envelope
// immediately, while the intended O(registered) cost fits with room to
// spare.
const (
	envelopeUniverse = 1_000_000
	envelopeRanks    = 2048
	envelopeBudget   = 64 // resident login-log events before spilling

	// envelopeHeapMB is the in-bench live-heap ceiling. Measured ~31 MB;
	// the ceiling leaves ~3x headroom for GC timing and platform variance
	// while still catching any O(universe) regression (eagerly
	// materializing even 5% of the universe costs hundreds of MB). The
	// tighter 5% drift gate lives in `make bench-compare` against
	// BENCH_baseline.json.
	envelopeHeapMB = 100
)

// envelopeConfig is the 1M-site spilled-log study the envelope is defined
// over. Batches cover ranks 1..2048 twice (seed + refresh) so accounts
// age, dumps fire, and the login log grows well past the resident budget.
func envelopeConfig(spillDir string) Config {
	cfg := SmallConfig()
	cfg.Web.NumSites = envelopeUniverse
	cfg.Batches = []Batch{
		{Name: "seed", Start: date(2014, 12, 10), Duration: 14 * 24 * time.Hour, FromRank: 1, ToRank: envelopeRanks / 2},
		{Name: "refresh", Start: date(2015, 11, 20), Duration: 21 * 24 * time.Hour, FromRank: 1, ToRank: envelopeRanks},
	}
	cfg.NumUnused = 200
	cfg.BreachRegistered = 6
	cfg.BreachUnregistered = 3
	cfg.OrganicUsersMin = 5
	cfg.OrganicUsersMax = 15
	cfg.Workers = 8
	cfg.NetLatency = time.Millisecond
	cfg.LogSpillDir = spillDir
	cfg.LogResidentBudget = envelopeBudget
	return cfg
}

// BenchmarkHeapEnvelope runs the full 1M-site spilled-log study and
// measures the live heap it retains at the end (post-GC, study state
// still reachable). It reports heap-MB, materialized-sites, and
// spilled-segments, and fails outright if the live heap exceeds the
// fixed envelope. `make bench-compare` additionally gates heap-MB at 5%
// drift against the tracked baseline.
func BenchmarkHeapEnvelope(b *testing.B) {
	b.ReportAllocs()
	var p *Pilot
	var materialized, segments, resident int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := envelopeConfig(b.TempDir())
		p = NewPilot(cfg)
		b.StartTimer()
		p.Run()
		b.StopTimer()
		if err := p.Provider.SpillErr(); err != nil {
			b.Fatal(err)
		}
		materialized = int64(p.Universe.MaterializedSites())
		segments = int64(p.Provider.SpilledSegments())
		resident = int64(p.Provider.ResidentLogSize())
		if segments == 0 {
			b.Fatalf("resident budget %d never forced a spill (resident log size %d)",
				envelopeBudget, resident)
		}
		if resident > envelopeBudget {
			b.Fatalf("resident log size %d exceeds budget %d", resident, envelopeBudget)
		}
		b.StartTimer()
	}
	b.StopTimer()
	// Live heap with the final pilot still reachable: what a long-running
	// study retains between waves, not what the run transiently allocated.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	b.ReportMetric(heapMB, "heap-MB")
	b.ReportMetric(float64(materialized), "materialized-sites")
	b.ReportMetric(float64(segments), "spilled-segments")
	if heapMB > envelopeHeapMB {
		b.Fatalf("live heap %.1f MB exceeds the %d MB envelope for a %d-site universe / %d-rank study",
			heapMB, envelopeHeapMB, envelopeUniverse, envelopeRanks)
	}
	runtime.KeepAlive(p)
}

// envelope10MAccounts/envelope10MHeapMB: the 10M-honey-account variant.
// The population exists through the (seed, rank) deriver and the ledger's
// rank spans — O(1) heap per provisioned span, not per account — so ten
// million accounts must fit the same order of heap as the 1M-site
// envelope. The 256 MB ceiling is the tentpole acceptance bound; the
// measured figure (~31 MB, dominated by the registered set and the
// dictionary) is gated at 5% drift via BENCH_baseline.json.
const (
	envelope10MAccounts = 10_000_000
	envelope10MHeapMB   = 256
)

// BenchmarkHeapEnvelope10M is BenchmarkHeapEnvelope with the monitored
// honeypot population raised to 10M accounts. Everything else — the 1M
// -site universe, the 2048-rank crawl, the spilled login log — stays the
// same, so the delta against the plain envelope isolates what ten million
// provisioned accounts cost.
func BenchmarkHeapEnvelope10M(b *testing.B) {
	b.ReportAllocs()
	var p *Pilot
	var accounts, unused int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := envelopeConfig(b.TempDir())
		cfg.NumUnused = envelope10MAccounts
		p = NewPilot(cfg)
		b.StartTimer()
		p.Run()
		b.StopTimer()
		if err := p.Provider.SpillErr(); err != nil {
			b.Fatal(err)
		}
		accounts = int64(p.Provider.NumAccounts())
		unused = int64(p.Ledger.UnusedCount())
		if accounts < envelope10MAccounts {
			b.Fatalf("study provisioned %d accounts, want >= %d", accounts, envelope10MAccounts)
		}
		// Registrations draw from the same pool, so the unused monitoring
		// population is 10M minus the identities the 2048-rank crawl burned.
		if unused < envelope10MAccounts-4*envelopeRanks {
			b.Fatalf("only %d unused honeypots monitored, want ~%d", unused, envelope10MAccounts)
		}
		b.StartTimer()
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	b.ReportMetric(heapMB, "heap-MB")
	b.ReportMetric(float64(accounts)/1e6, "Maccounts")
	if heapMB > envelope10MHeapMB {
		b.Fatalf("live heap %.1f MB exceeds the %d MB envelope for a %d-account study",
			heapMB, envelope10MHeapMB, envelope10MAccounts)
	}
	runtime.KeepAlive(p)
}

// checkpointConfig is the study BenchmarkCheckpoint measures: two batches
// over the same 1024 ranks, a 100k-account unused pool and a spilled
// login log, with a checkpoint at every wave boundary.
func checkpointConfig(ckptDir, spillDir string) Config {
	cfg := SmallConfig()
	cfg.Web.NumSites = 4000
	cfg.Batches = []Batch{
		{Name: "seed", Start: date(2014, 12, 10), Duration: 14 * 24 * time.Hour, FromRank: 1, ToRank: 1024},
		{Name: "refresh", Start: date(2015, 11, 20), Duration: 21 * 24 * time.Hour, FromRank: 1, ToRank: 1024},
	}
	cfg.NumUnused = 100_000
	cfg.BreachRegistered = 6
	cfg.BreachUnregistered = 3
	cfg.OrganicUsersMin = 5
	cfg.OrganicUsersMax = 15
	cfg.Workers = 8
	cfg.NetLatency = time.Millisecond
	cfg.CheckpointDir = ckptDir
	cfg.CheckpointEvery = 1
	cfg.LogSpillDir = spillDir
	cfg.LogResidentBudget = envelopeBudget
	return cfg
}

// checkpointMaxKB is the in-bench ceiling on every checkpoint file the
// study writes. A checkpoint stores its config and progress verbatim and
// every other section as a length and SHA-256, ~1 KB whatever the study
// size; a state section stored whole again costs hundreds of KB here. The
// ckpt-full-KB figure is also gated at 5% drift via BENCH_baseline.json.
const checkpointMaxKB = 4

// BenchmarkCheckpoint runs a checkpoint-every-wave study and reports
// ckpt-full-KB, the size of the last checkpoint file it wrote. The
// wall-clock of the run itself includes every checkpoint.
func BenchmarkCheckpoint(b *testing.B) {
	b.ReportAllocs()
	var lastKB float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		p := NewPilot(checkpointConfig(dir, b.TempDir()))
		b.StartTimer()
		p.Run()
		b.StopTimer()
		files, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.twsnap"))
		if err != nil {
			b.Fatal(err)
		}
		if len(files) < 4 {
			b.Fatalf("only %d checkpoints written; the cadence did not engage", len(files))
		}
		sort.Strings(files)
		for _, file := range files {
			fi, err := os.Stat(file)
			if err != nil {
				b.Fatal(err)
			}
			kb := float64(fi.Size()) / 1e3
			if kb > checkpointMaxKB {
				b.Fatalf("%s is %.1f KB, over the %d KB checkpoint ceiling", filepath.Base(file), kb, checkpointMaxKB)
			}
			lastKB = kb
		}
	}
	b.ReportMetric(lastKB, "ckpt-full-KB")
}
