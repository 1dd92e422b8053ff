// Package sim orchestrates the full Tripwire pilot study over virtual
// time: it provisions honey identities at the email provider, runs the
// crawler over the synthetic web in the paper's four registration batches
// (December 2014 through May 2016), lets the attacker campaign breach sites
// and stuff credentials, pulls the provider's sporadic login dumps (with
// the paper's Spring-2015 retention gap), and feeds the monitor whose
// detections reproduce Tables 1-3 and Figures 1-3.
package sim

import (
	"time"

	"tripwire/internal/obs"
	"tripwire/internal/webgen"
)

// Batch is one registration campaign over a rank range.
type Batch struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	// FromRank..ToRank (inclusive) are the Alexa-style ranks covered.
	FromRank, ToRank int
	// Manual marks the hand-registration pass over eligible top sites.
	Manual bool
}

// Config parameterizes a pilot run.
type Config struct {
	Seed int64
	// Web configures the synthetic web.
	Web webgen.Config

	// Start and End bound the study window.
	Start, End time.Time
	// Batches are the registration campaigns, in order.
	Batches []Batch

	// NumUnused is how many provisioned-but-never-registered accounts are
	// monitored (the paper had >100,000).
	NumUnused int
	// NumControls is how many control accounts Tripwire logs into itself.
	NumControls int
	// ControlLoginEvery is the cadence of control logins.
	ControlLoginEvery time.Duration

	// BreachRegistered / BreachUnregistered are how many sites the
	// attacker breaches among sites where Tripwire holds a valid account,
	// and among the rest of the web (undetectable; the paper's §6.2).
	BreachRegistered   int
	BreachUnregistered int
	// BreachWindowStart/End bound when breaches occur.
	BreachWindowStart, BreachWindowEnd time.Time

	// OrganicUsersPerSite bounds the synthetic organic population added to
	// a site's database before its breach (so dumps are mostly not ours).
	OrganicUsersMin, OrganicUsersMax int

	// DumpDates are when Tripwire receives provider login dumps. Combined
	// with Retention they reproduce the Spring 2015 data gap.
	DumpDates []time.Time
	// Retention is the provider's login-log retention limit.
	Retention time.Duration

	// CaptchaImageErr / CaptchaKnowledgeErr are solving-service error rates.
	CaptchaImageErr, CaptchaKnowledgeErr float64
	// CrawlerFaultRate injects prototype faults (System Error share).
	CrawlerFaultRate float64

	// UseLanguagePacks enables the §7.2 multi-language crawler extension;
	// off by default to reproduce the English-only prototype.
	UseLanguagePacks bool
	// UseSearchEngine enables §6.2.2 search-assisted registration-page
	// discovery; off by default.
	UseSearchEngine bool
	// UseMultiStage enables the §7.2 multi-page-form extension; off by
	// default.
	UseMultiStage bool

	// ReRegisterDetected re-registers accounts at detected sites in
	// May 2016 to test recovery (paper §6.1.4).
	ReRegisterDetected bool

	// Workers is how many goroutines run the pilot's parallel work: the
	// crawl tasks of one registration wave, and the conflict partitions of
	// one timeline epoch (internal/simclock's epoch executor). Zero means
	// runtime.GOMAXPROCS(0); 1 runs everything serially. Results are
	// bit-identical for a given seed regardless of the value: each site's
	// outcome derives only from (seed, rank, attempt) and waves merge in
	// rank order (see parallel.go), same-key timeline events are
	// serialized, scheduling from parallel handlers is flushed in frontier
	// order, and append-ordered shared logs are re-sequenced per segment.
	Workers int
	// NetLatency emulates one network round-trip of wall-clock delay per
	// crawler page load (real crawling is latency-bound, not CPU-bound).
	// Zero — the default — keeps simulations instant; benchmarks set it to
	// measure how well workers overlap network waits.
	NetLatency time.Duration

	// CheckpointEvery, with CheckpointDir, also writes a checkpoint after
	// every CheckpointEvery-th completed registration wave. Only the
	// benchmark's durable workload sets it; resume replays from time zero
	// either way, so a periodic checkpoint saves no work. Zero, the
	// default, writes none.
	CheckpointEvery int
	// CheckpointDir makes a cancelled run write one resumable snapshot at
	// the epoch boundary where it stopped (see internal/snapshot and
	// Pilot.WriteCheckpoint), named checkpoint-%06d.twsnap by
	// completed-wave count. Created on demand. Checkpoint writes are
	// observation-only: they draw no randomness and feed nothing back, so
	// enabling them never changes study results.
	CheckpointDir string

	// LogResidentBudget caps how many login events the email provider
	// keeps in memory; when exceeded, the oldest events spill to cold
	// segment files in LogSpillDir (see internal/emailprovider's spill
	// tier). Zero keeps the whole log resident. Spilling is transparent:
	// dumps and exports see identical results either way.
	LogResidentBudget int
	// LogSpillDir is where cold login-log segments are written.
	LogSpillDir string

	// Metrics, when non-nil, receives telemetry from every subsystem of the
	// pilot. Instruments are observation-only — they draw no randomness and
	// feed nothing back — so attaching a registry never changes results
	// (TestTimelineWorkerInvariance runs with one attached). Nil disables
	// telemetry at the cost of one branch per record site.
	Metrics *obs.Registry
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// DefaultConfig returns the paper-scale configuration: ~33.6k sites,
// the four registration occasions of §5.1, dump dates with the retention
// gap, and breach volume calibrated to the paper's 19 detections.
func DefaultConfig() Config {
	start := date(2014, 7, 1)
	end := date(2017, 2, 1)
	web := webgen.DefaultConfig()
	return Config{
		Seed:  42,
		Web:   web,
		Start: start,
		End:   end,
		Batches: []Batch{
			{Name: "seed top-1k Alexa + top-1k Quantcast", Start: date(2014, 12, 10), Duration: 14 * 24 * time.Hour, FromRank: 1, ToRank: 2000},
			{Name: "Alexa top-25k", Start: date(2015, 1, 15), Duration: 60 * 24 * time.Hour, FromRank: 1, ToRank: 25000},
			{Name: "Alexa top-30k", Start: date(2015, 11, 20), Duration: 21 * 24 * time.Hour, FromRank: 1, ToRank: 30000},
			{Name: "manual top-500", Start: date(2016, 5, 15), Duration: 7 * 24 * time.Hour, FromRank: 1, ToRank: 500, Manual: true},
		},
		NumUnused:          100000,
		NumControls:        8,
		ControlLoginEvery:  30 * 24 * time.Hour,
		BreachRegistered:   26,
		BreachUnregistered: 24,
		BreachWindowStart:  date(2015, 4, 1),
		BreachWindowEnd:    date(2016, 12, 1),
		OrganicUsersMin:    40,
		OrganicUsersMax:    250,
		DumpDates: []time.Time{
			date(2015, 3, 20),
			date(2015, 8, 15),
			date(2015, 10, 10),
			date(2015, 12, 5),
			date(2016, 2, 1),
			date(2016, 4, 1),
			date(2016, 6, 1),
			date(2016, 8, 1),
			date(2016, 10, 1),
			date(2016, 12, 1),
			date(2017, 2, 1),
		},
		Retention:           75 * 24 * time.Hour,
		CaptchaImageErr:     0.15,
		CaptchaKnowledgeErr: 0.25,
		CrawlerFaultRate:    0.18,
		ReRegisterDetected:  true,
	}
}

// SmallConfig scales everything down for tests and quick demos while
// keeping every mechanism active.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.Web.NumSites = 1200
	cfg.Batches = []Batch{
		{Name: "seed", Start: date(2014, 12, 10), Duration: 14 * 24 * time.Hour, FromRank: 1, ToRank: 300},
		{Name: "main", Start: date(2015, 1, 15), Duration: 60 * 24 * time.Hour, FromRank: 1, ToRank: 1000},
		{Name: "refresh", Start: date(2015, 11, 20), Duration: 21 * 24 * time.Hour, FromRank: 1, ToRank: 1200},
		{Name: "manual top-100", Start: date(2016, 5, 15), Duration: 7 * 24 * time.Hour, FromRank: 1, ToRank: 100, Manual: true},
	}
	cfg.NumUnused = 2000
	cfg.BreachRegistered = 12
	cfg.BreachUnregistered = 6
	cfg.OrganicUsersMin = 10
	cfg.OrganicUsersMax = 40
	return cfg
}
