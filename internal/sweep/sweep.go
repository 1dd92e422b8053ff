// Package sweep runs the pilot study across many seeds and aggregates the
// headline outcomes — the engine behind cmd/tripwire-sweep. Seeds run on a
// bounded worker pool; per-seed progress streams as each study finishes,
// but results aggregate in seed order, so the summary output is
// byte-identical at any parallelism.
//
// The per-seed unit of work (RunSeed) and the per-seed progress format
// (ProgressLine, ProgressWriter) are exported because internal/distsweep
// reuses them verbatim: a distributed sweep is this package's task
// decomposition with the worker pool replaced by an HTTP lease protocol,
// and sharing the distillation and aggregation code is what makes the
// distributed output byte-identical to a serial Run.
package sweep

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"tripwire"
	"tripwire/internal/core"
	"tripwire/internal/par"
	"tripwire/internal/report"
	"tripwire/internal/stats"
)

// Options configures one multi-seed sweep.
type Options struct {
	// N is how many seeds to run (1..N handed to ConfigFor).
	N int
	// Parallel bounds how many studies run concurrently. Values <= 1 run
	// serially; larger values are capped at N. The pool is deliberately
	// NOT capped at GOMAXPROCS: studies with an emulated network latency
	// (Config.NetLatency) are sleep-bound, so concurrency past the core
	// count still overlaps useful waiting — on a single-core box a
	// GOMAXPROCS cap silently serialized every "parallel" sweep.
	// Parallelism affects wall clock and progress-line order only — never
	// the results.
	Parallel int
	// ConfigFor builds the study configuration for one seed index.
	ConfigFor func(seed int64) tripwire.Config
	// Progress, when non-nil, receives one line per seed as it finishes.
	// Under parallelism the line order follows completion order. Lines are
	// serialized by a single writer goroutine, so studies never contend on
	// a lock to report progress.
	Progress io.Writer
}

// SeedResult is the headline outcome of one seed's study.
type SeedResult struct {
	Seed       int64 // cfg.Seed actually run
	Detections int   // detected compromises
	Plaintext  int   // detections classified as plaintext breaches
	ValidPct   float64
	HasValid   bool // false when no registration attempts happened
	EligPct    float64
	Alarms     int   // integrity alarms (must be zero)
	Err        error // Study.Err, when construction or the run failed
	// Wall is the study's wall-clock duration. It is measurement metadata,
	// not a simulation output: the byte-identity contract between serial,
	// parallel, and distributed sweeps covers every other field, while
	// Wall is whatever the clock said. Comparisons zero it first.
	Wall time.Duration
}

// Outcome is the full sweep result, in seed order.
type Outcome struct {
	Results []SeedResult
}

// Run executes the sweep described by o.
func Run(o Options) *Outcome {
	if o.N <= 0 {
		return &Outcome{}
	}
	results := make([]SeedResult, o.N)
	pw := NewProgressWriter(o.Progress)
	par.For(o.Parallel, o.N, func(i int) {
		results[i] = RunSeed(o.ConfigFor(int64(i + 1)))
		pw.Write(results[i])
	})
	pw.Close()
	return &Outcome{Results: results}
}

// RunSeed runs one study and distills its SeedResult. It is the unit of
// work a distributed sweep worker executes for one leased seed.
func RunSeed(cfg tripwire.Config) SeedResult {
	return RunSeedContext(context.Background(), cfg)
}

// RunSeedContext is RunSeed under a context: cancelling stops the study
// cleanly at the next wave boundary and surfaces ctx's error in the
// result. Distributed workers cancel when they lose their lease, so a
// fenced-off worker stops burning cycles on a seed that was re-issued.
func RunSeedContext(ctx context.Context, cfg tripwire.Config) (r SeedResult) {
	r = SeedResult{Seed: cfg.Seed}
	start := time.Now()
	// Named return: the deferred write must land in the value the caller
	// sees, including on the early error return.
	defer func() { r.Wall = time.Since(start) }()
	study := tripwire.New(tripwire.WithConfig(cfg))
	if err := study.RunContext(ctx); err != nil {
		r.Err = err
		return r
	}
	p := study.Pilot()

	dets := study.Detections()
	r.Detections = len(dets)
	for _, d := range dets {
		if study.Classify(d) == core.BreachPlaintext {
			r.Plaintext++
		}
	}
	vals := p.ValidateAll()
	att, valid := 0, 0
	for _, row := range report.Table1(vals) {
		att += row.AttHard + row.AttEasy
		valid += row.ValidHard + row.ValidEasy
	}
	if att > 0 {
		r.ValidPct = 100 * float64(valid) / float64(att)
		r.HasValid = true
	}
	r.EligPct = 100 * report.Fig3(p, vals).SuccessOnElig
	r.Alarms = len(p.Monitor.Alarms())
	return r
}

// ProgressLine formats the one-line per-seed progress record. The
// in-process pool and the distributed coordinator both emit exactly this
// line, so an operator watching stderr cannot tell the transports apart.
func ProgressLine(r SeedResult) string {
	if r.Err != nil {
		return fmt.Sprintf("seed %-6d ERROR: %v\n", r.Seed, r.Err)
	}
	return fmt.Sprintf("seed %-6d detections=%d hard=%d valid=%.0f%% eligOK=%.0f%% wall=%.2fs\n",
		r.Seed, r.Detections, r.Plaintext, r.ValidPct, r.EligPct, r.Wall.Seconds())
}

// ProgressWriter serializes per-seed progress lines through one writer
// goroutine: producers hand results to a channel and never share a lock
// or an io.Writer. Close flushes and waits for the writer to drain.
type ProgressWriter struct {
	ch   chan SeedResult
	done chan struct{}
}

// NewProgressWriter starts the writer goroutine over w. A nil w returns a
// no-op writer (Write and Close still safe to call).
func NewProgressWriter(w io.Writer) *ProgressWriter {
	if w == nil {
		return nil
	}
	pw := &ProgressWriter{ch: make(chan SeedResult, 64), done: make(chan struct{})}
	go func() {
		defer close(pw.done)
		for r := range pw.ch {
			io.WriteString(w, ProgressLine(r))
		}
	}()
	return pw
}

// Write enqueues one finished seed's progress line.
func (pw *ProgressWriter) Write(r SeedResult) {
	if pw == nil {
		return
	}
	pw.ch <- r
}

// Close flushes pending lines and stops the writer goroutine.
func (pw *ProgressWriter) Close() {
	if pw == nil {
		return
	}
	close(pw.ch)
	<-pw.done
}

// Render formats the aggregate summary block for the given scale label.
// It walks Results in seed order, so serial, parallel, and distributed
// sweeps render byte-identical output — except the final "seed wall time"
// row, which summarizes the wall-clock Wall fields and is excluded from
// the byte-identity contract (tests zero Wall before comparing).
func (oc *Outcome) Render(label string) string {
	var detections, plaintext, validRate, eligSuccess, alarms, wall []float64
	for _, r := range oc.Results {
		if r.Err != nil {
			continue
		}
		detections = append(detections, float64(r.Detections))
		plaintext = append(plaintext, float64(r.Plaintext))
		if r.HasValid {
			validRate = append(validRate, r.ValidPct)
		}
		eligSuccess = append(eligSuccess, r.EligPct)
		alarms = append(alarms, float64(r.Alarms))
		wall = append(wall, r.Wall.Seconds())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nMulti-seed robustness ( %s scale )\n", label)
	fmt.Fprintf(&b, "  detections:            %s\n", stats.Summarize(detections))
	fmt.Fprintf(&b, "  plaintext verdicts:    %s\n", stats.Summarize(plaintext))
	fmt.Fprintf(&b, "  account validity %%:    %s\n", stats.Summarize(validRate))
	fmt.Fprintf(&b, "  success on eligible %%: %s\n", stats.Summarize(eligSuccess))
	fmt.Fprintf(&b, "  integrity alarms:      %s (must be all zero)\n", stats.Summarize(alarms))
	fmt.Fprintf(&b, "  seed wall time s:      %s\n", stats.Summarize(wall))
	return b.String()
}

// Failed reports why the sweep should exit non-zero: the first seed whose
// study carried an error, else the first seed that fired integrity alarms.
// A nil return means every seed ran clean.
func (oc *Outcome) Failed() error {
	for _, r := range oc.Results {
		if r.Err != nil {
			return fmt.Errorf("seed %d: %w", r.Seed, r.Err)
		}
	}
	for _, r := range oc.Results {
		if r.Alarms > 0 {
			return fmt.Errorf("integrity alarms fired (seed %d)", r.Seed)
		}
	}
	return nil
}
