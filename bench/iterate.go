package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"
)

// A workload is one closed batch: setup builds a fixed input from the seed,
// run drives the library over it to completion, verify checks the output.
type workload struct {
	setup func(seed int64, sz sizes, tr *tracer) (instance, error)
	// items names the unit items_per_s counts for this workload.
	items string
}

type instance interface {
	// run executes the batch. Errors the library returns are kept for
	// verify to report as failed checks, so run itself never fails.
	run(ctx context.Context)
	// verify checks the output and returns the digest of its canonical
	// form.
	verify(c *checker) string
	// items is the work the batch did, in the workload's unit.
	items() float64
	// layers adds the per-layer metrics only a traced run collects; it may
	// do extra work (re-timing the cracker, plain reference runs) because it
	// runs after the measured region.
	layers(tr *tracer)
	close()
}

var workloads = map[string]workload{
	"pilot-paper":         {setup: setupPilotPaper, items: "studies"},
	"crawl-paper":         {setup: setupCrawl, items: "sites crawled"},
	"stuffing":            {setup: setupStuffing, items: "timeline events"},
	"pilot-small-durable": {setup: setupDurable, items: "studies run straight and resumed"},
}

// sizes are the workload input sizes. full is what the benchmark measures;
// the smoke test runs the same code at tiny sizes.
type sizes struct {
	// PilotConfig is the configuration pilot-paper runs: "paper"
	// (DefaultConfig) or "small" (SmallConfig).
	PilotConfig    string `json:"pilot_config"`
	CrawlUniverses int    `json:"crawl_universes"`
	CrawlSites     int    `json:"crawl_sites"`
	StuffDomains   int    `json:"stuff_domains"`
	StuffAccounts  int    `json:"stuff_accounts_per_domain"`
	StuffControls  int    `json:"stuff_controls"`
	StuffDays      int    `json:"stuff_days"`
	StuffDumpEvery int    `json:"stuff_dump_every_days"`
	DurableSeeds   int    `json:"durable_seeds"`
}

var fullSizes = sizes{
	PilotConfig:    "paper",
	CrawlUniverses: 5,
	CrawlSites:     33634,
	StuffDomains:   24,
	StuffAccounts:  1000,
	StuffControls:  1000,
	StuffDays:      180,
	StuffDumpEvery: 30,
	DurableSeeds:   6,
}

// Each iteration builds its input several times: setup_s is the median of
// the builds, and only the last one runs. Cheap set-ups (a millisecond or
// less) repeat up to maxSetups times so their median is steady; costly ones
// stop after minSetups once setupBudget is spent.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 0.5 // seconds
)

// iterResult is one iteration's measurements, passed from the child
// process to the parent as one JSON line.
type iterResult struct {
	SetupS   float64            `json:"setup_s"`
	WallS    float64            `json:"wall_s"`
	RunS     float64            `json:"run_s"`
	CPUS     float64            `json:"cpu_s"`
	MaxRSSMB float64            `json:"max_rss_mb"`
	Items    float64            `json:"items"`
	Checks   int                `json:"checks"`
	Failures []string           `json:"failures,omitempty"`
	Digest   string             `json:"digest"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

// iterate runs one iteration of workload name in this process. With a
// non-empty traceDir it is the traced iteration: a metrics registry and
// spans are attached, and the trace, CPU profile and per-layer metrics are
// collected.
func iterate(ctx context.Context, name string, seed int64, sz sizes, traceDir string) (iterResult, error) {
	w, ok := workloads[name]
	if !ok {
		return iterResult{}, fmt.Errorf("unknown workload %q", name)
	}
	var setups []float64
	spent := 0.0
	for len(setups) < maxSetups-1 && (len(setups) < minSetups-1 || spent < setupBudget) {
		// Collect the previous build's garbage so every build, and the run
		// after the last one, starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(seed, sz, nil)
		if err != nil {
			return iterResult{}, fmt.Errorf("%s setup: %w", name, err)
		}
		d := time.Since(t0).Seconds()
		inst.close()
		setups = append(setups, d)
		spent += d
	}

	runtime.GC()
	cpu0 := cpuSeconds()
	var tr *tracer
	var rt0 runtimeSample
	if traceDir != "" {
		var err error
		if tr, err = newTracer(traceDir); err != nil {
			return iterResult{}, err
		}
		if err := tr.startProfile(); err != nil {
			return iterResult{}, err
		}
		defer tr.stopProfile() // error paths; the success path checks it below
		rt0 = readRuntime()
	}
	started := time.Now()
	end := tr.begin("bench", "setup")
	inst, err := w.setup(seed, sz, tr)
	end()
	if err != nil {
		return iterResult{}, fmt.Errorf("%s setup: %w", name, err)
	}
	setups = append(setups, time.Since(started).Seconds())
	defer inst.close()

	t1 := time.Now()
	end = tr.begin("bench", "run")
	inst.run(ctx)
	end()
	runS := time.Since(t1).Seconds()

	c := &checker{workload: name, seed: seed, full: sz == fullSizes}
	end = tr.begin("bench", "verify")
	digest := inst.verify(c)
	end()
	res := iterResult{
		SetupS:   median(setups),
		WallS:    time.Since(started).Seconds(),
		RunS:     runS,
		CPUS:     cpuSeconds() - cpu0,
		Items:    inst.items(),
		Checks:   c.n,
		Failures: c.failures,
		Digest:   digest,
	}

	if tr != nil {
		if err := tr.stopProfile(); err != nil {
			return iterResult{}, err
		}
		tr.addRuntime(rt0, readRuntime())
		tr.set("bench.run_s", runS)
		inst.layers(tr)
		tr.finishRatios()
		if err := tr.writeChrome(map[string]any{"workload": name, "seed": seed, "sizes": sz}); err != nil {
			return iterResult{}, err
		}
		res.Layers = tr.layers
	}
	res.MaxRSSMB = maxRSSMB()
	return res, nil
}

// checker counts correctness checks and records the failed ones; fail_frac
// is failures over checks.
type checker struct {
	workload string
	seed     int64
	full     bool // inputs are full size, so the pinned digests apply
	n        int
	failures []string
}

func (c *checker) check(what string, ok bool) {
	c.n++
	if !ok {
		c.failures = append(c.failures, what)
	}
}

// digest finishes h and, at the default seed and full size, checks the
// result against the pinned digest of the workload's canonical output.
func (c *checker) digest(h hash.Hash) string {
	got := hex.EncodeToString(h.Sum(nil))
	if want, ok := pinnedDigests[c.workload]; ok && c.full && c.seed == defaultSeed {
		c.check(fmt.Sprintf("output digest %s... matches the pinned seed-%d digest %s...", got[:12], defaultSeed, want[:12]), got == want)
	}
	return got
}

const defaultSeed = 42

// pinnedDigests are the SHA-256 digests of each workload's canonical
// output at -seed 42 and full size: pilot-paper hashes Study.Summary(),
// crawl-paper the per-rank (code, exposed) rows, stuffing the detections
// and the provider login log, pilot-small-durable the six summaries.
var pinnedDigests = map[string]string{
	"pilot-paper":         "8d2ed336d09c4a30c9c59be001b3a98b070fa9e9880011b80df2a9da55cf6646",
	"crawl-paper":         "fa9d6cc8832534e1eb853e92a36d3caf81d2be6a71d2c318b1bd5380f6301a05",
	"stuffing":            "c7d7fee8f7805f0db312c2600573646fc1a220cc3dd88f93dc9bd2e3dd43a4cd",
	"pilot-small-durable": "7710d8aa916e913dae868d2ee0f48afbde3c20d6b24cf962c9e370008e8bb6dd",
}
