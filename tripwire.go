// Package tripwire is a reproduction of "Tripwire: Inferring Internet Site
// Compromise" (DeBlasio, Savage, Voelker, Snoeren — IMC 2017).
//
// Tripwire registers honey accounts at third-party websites, each sharing a
// unique password with a dedicated email account at a major provider. Any
// later successful login to one of those email accounts is strong — and
// false-positive-free — evidence that the corresponding website's credential
// database was stolen and exploited for password reuse.
//
// The library bundles every subsystem the technique requires, implemented
// from scratch on the standard library: a headless browser and HTML DOM, a
// heuristic registration crawler, an email-provider model with IMAP and
// login telemetry, a Tripwire-side SMTP mail server, an attacker simulation
// (breaches, a real dictionary cracker, a credential-stuffing botnet over a
// synthetic global proxy space), and the inference engine that turns login
// dumps into compromise detections.
//
// Quick start:
//
//	study := tripwire.New(
//		tripwire.WithConfig(tripwire.SmallConfig()),
//		tripwire.WithSeed(42),
//	)
//	if err := study.RunContext(ctx); err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(study.Summary())
//
// Attach telemetry with WithMetrics and watch progress with Events:
//
//	reg := tripwire.NewMetrics()
//	study := tripwire.New(tripwire.WithMetrics(reg))
//	go func() {
//		for ev := range study.Events() {
//			log.Println(ev.Kind, ev.At)
//		}
//	}()
//
// The full paper-scale pilot (33,634 sites over the July 2014 – February
// 2017 virtual timeline) is the default configuration; see cmd/tripwire.
package tripwire

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"

	"tripwire/internal/core"
	"tripwire/internal/disclosure"
	"tripwire/internal/obs"
	"tripwire/internal/report"
	"tripwire/internal/sim"
)

// Config parameterizes a study; it is the simulation configuration
// re-exported for public use.
type Config = sim.Config

// Batch is one registration campaign over a rank range.
type Batch = sim.Batch

// Detection is the evidence of compromise at one site.
type Detection = core.Detection

// BreachClass classifies what a detection implies about the site's
// password storage.
type BreachClass = core.BreachClass

// Breach classes.
const (
	BreachHashedOnly    = core.BreachHashedOnly
	BreachPlaintext     = core.BreachPlaintext
	BreachIndeterminate = core.BreachIndeterminate
)

// Metrics is the observability registry threaded through every subsystem
// of a study: sharded counters, gauges, histograms, and stage spans. Dump
// it with WriteProm/WriteJSON/Snapshot, or serve it over HTTP with the
// -metrics-addr flag on cmd/tripwire.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry to pass to WithMetrics.
func NewMetrics() *Metrics { return obs.New() }

// Event is one study progress notification (a completed crawl wave or a
// new detection). See EventKind for the variants and the ordering
// guarantee.
type Event = sim.Event

// EventKind discriminates Events.
type EventKind = sim.EventKind

// Event kinds.
const (
	EventWaveDone  = sim.EventWaveDone
	EventDetection = sim.EventDetection
)

// DefaultConfig returns the paper-scale pilot configuration.
func DefaultConfig() Config { return sim.DefaultConfig() }

// SmallConfig returns a scaled-down configuration suitable for tests,
// examples, and quick demos.
func SmallConfig() Config { return sim.SmallConfig() }

// Option customizes a study built by New. Options are applied on top of
// the base configuration in a fixed precedence: WithConfig replaces the
// base wholesale, and the targeted options (WithWorkers, WithSeed,
// WithMetrics) are applied afterwards — so the targeted options win
// regardless of the order they are passed in.
type Option func(*studyOptions)

type studyOptions struct {
	cfg        Config
	cfgSet     bool
	workers    *int
	seed       *int64
	metrics    **Metrics
	checkpoint *checkpointOption
	logSpill   *logSpillOption
}

type checkpointOption struct {
	dir   string
	every int
}

type logSpillOption struct {
	dir    string
	budget int
}

// apply lays the targeted options over cfg (WithConfig replacement has
// already happened by the time this runs).
func (o *studyOptions) apply(cfg *Config) {
	if o.workers != nil {
		cfg.Workers = *o.workers
	}
	if o.seed != nil {
		cfg.Seed = *o.seed
	}
	if o.metrics != nil {
		cfg.Metrics = *o.metrics
	}
	if o.checkpoint != nil {
		cfg.CheckpointDir = o.checkpoint.dir
		cfg.CheckpointEvery = o.checkpoint.every
	}
	if o.logSpill != nil {
		cfg.LogSpillDir = o.logSpill.dir
		cfg.LogResidentBudget = o.logSpill.budget
	}
}

// WithConfig replaces the base configuration (DefaultConfig) wholesale.
// It conflicts with Resume, whose configuration comes from the snapshot.
func WithConfig(cfg Config) Option {
	return func(o *studyOptions) { o.cfg, o.cfgSet = cfg, true }
}

// WithWorkers sets how many goroutines run a study's parallel work: the
// crawl tasks of a registration wave and the conflict partitions of a
// timeline epoch. Zero means GOMAXPROCS. Results are bit-identical for a
// given seed regardless of the value.
func WithWorkers(n int) Option {
	return func(o *studyOptions) { o.workers = &n }
}

// WithSeed sets the master seed; every derived RNG stream follows from it.
func WithSeed(seed int64) Option {
	return func(o *studyOptions) { o.seed = &seed }
}

// WithMetrics attaches a metrics registry. Instruments are observation-only
// — recording draws no randomness and feeds nothing back — so attaching a
// registry never changes study results.
func WithMetrics(r *Metrics) Option {
	return func(o *studyOptions) { o.metrics = &r }
}

// WithCheckpoint makes a cancelled study write one resumable snapshot into
// dir at the epoch boundary where it stopped, named checkpoint-%06d.twsnap
// by completed-wave count; a study that runs to its end writes none. Pass
// the snapshot to Resume to continue. A positive every also writes one
// after every Nth completed registration wave; only the benchmark's
// durable workload uses that, since resume replays from time zero and a
// periodic checkpoint saves no work. Checkpointing is observation-only:
// enabling it never changes study results.
func WithCheckpoint(dir string, every int) Option {
	return func(o *studyOptions) { o.checkpoint = &checkpointOption{dir: dir, every: every} }
}

// WithLogSpill caps the email provider's in-memory login log at budget
// events; older events spill to CRC-protected cold segment files in dir.
// Spilling is transparent — dumps, detections, and exports are
// byte-identical to an all-resident run — and bounds the resident heap of
// very large or very long studies.
func WithLogSpill(dir string, budget int) Option {
	return func(o *studyOptions) { o.logSpill = &logSpillOption{dir: dir, budget: budget} }
}

// Study is one end-to-end Tripwire pilot: registration, monitoring,
// attacker activity, and inference over a virtual timeline.
type Study struct {
	cfg    Config
	pilot  *sim.Pilot
	events *eventStream
	ran    bool
	err    error
	// phase is the lifecycle marker behind Status. It is stored with
	// release semantics after err, so a concurrent Status observing a
	// terminal phase also observes the error that produced it.
	phase atomic.Int32
}

// New builds a fully wired study from DefaultConfig plus opts. Call
// RunContext (or Run) to execute it. An invalid configuration does not
// panic: the study is built empty, Err reports the validation failure
// immediately, and RunContext returns it.
func New(opts ...Option) *Study {
	o := studyOptions{cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	o.apply(&o.cfg)
	s := &Study{cfg: o.cfg, events: newEventStream()}
	if err := sim.Validate(o.cfg); err != nil {
		s.err = err
		s.phase.Store(int32(phaseFailed))
		return s
	}
	s.pilot = sim.NewPilot(o.cfg)
	return s
}

// Resume rebuilds a study from a checkpoint written by a run configured
// with WithCheckpoint (or Config.CheckpointDir) and prepares it to
// continue to the configured end date.
//
// The scheduler's pending queue cannot be serialized (it holds closures
// over live subsystem state), so resume replays: the study is rebuilt from
// the checkpoint's embedded configuration, RunContext deterministically
// re-executes the completed prefix — exactly the epoch count the
// checkpoint recorded — verifies the rebuilt state against the snapshot,
// and then continues. The checkpoint holds the length and SHA-256 of each
// subsystem's encoded state rather than the state itself, so
// verification re-encodes every subsystem and compares digests; an error
// names the first diverging section. The finished run's results
// (attempts, detections, login logs, events) are byte-identical to an
// uninterrupted run at any worker count. Events replays the full sequence
// from the start of the study, not just the continuation.
//
// The checkpoint does not record the runtime knobs that the targeted
// options set (WithWorkers, WithMetrics, WithCheckpoint, WithLogSpill):
// without them a resumed study runs at GOMAXPROCS workers, writes no
// checkpoint and keeps its login log resident. Resume accepts the same Option set as New
// but rejects the two that conflict with a snapshot-borne configuration,
// naming the offending option: WithConfig (the configuration comes from
// the snapshot) and WithSeed (a changed seed would make the replay diverge
// from the attested snapshot).
func Resume(path string, opts ...Option) (*Study, error) {
	o := studyOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.cfgSet {
		return nil, errors.New("tripwire: Resume: option WithConfig conflicts with resuming — the configuration is embedded in the snapshot; drop WithConfig")
	}
	if o.seed != nil {
		return nil, errors.New("tripwire: Resume: option WithSeed conflicts with resuming — the seed is embedded in the snapshot and a changed seed would fail replay attestation; drop WithSeed")
	}
	pilot, err := sim.ResumePilot(path, func(cfg *Config) { o.apply(cfg) })
	if err != nil {
		return nil, err
	}
	return &Study{cfg: pilot.Cfg, pilot: pilot, events: newEventStream()}, nil
}

// RunContext executes the study to its configured end date. For an
// invalid configuration it returns the validation error instead of
// running. The context is checked at timeline epoch boundaries:
// cancelling stops the study cleanly after the epoch in flight, leaving
// every completed epoch's results valid, writes the WithCheckpoint
// snapshot if one is configured, and returns ctx's error (joined with
// the checkpoint's write error, if that failed).
//
// RunContext is idempotent: second and later calls return the first run's
// error without re-running.
func (s *Study) RunContext(ctx context.Context) error {
	if s.ran {
		return s.err
	}
	s.ran = true
	if s.pilot == nil {
		s.events.Close()
		return s.err
	}
	s.phase.Store(int32(phaseRunning))
	s.pilot.OnEvent = func(ev Event) { s.events.Append(ev) }
	s.err = s.pilot.RunContext(ctx)
	s.events.Close()
	switch {
	case s.pilot.Interrupted:
		s.phase.Store(int32(phaseInterrupted))
	case s.err != nil:
		s.phase.Store(int32(phaseFailed))
	default:
		s.phase.Store(int32(phaseDone))
	}
	return s.err
}

// Run is RunContext with a background context, kept chainable for the
// original API shape. Errors (validation failures, cancellation) are NOT
// swallowed: retrieve them with Err.
func (s *Study) Run() *Study {
	_ = s.RunContext(context.Background())
	return s
}

// Err returns the study's error: the validation error for an invalid
// configuration (set as soon as New returns), the context's error for a
// cancelled run, and nil otherwise.
func (s *Study) Err() error { return s.err }

// Metrics returns the registry attached with WithMetrics, or nil.
func (s *Study) Metrics() *Metrics { return s.cfg.Metrics }

// Interrupted reports whether the run was cancelled before the configured
// end date.
func (s *Study) Interrupted() bool { return s.pilot != nil && s.pilot.Interrupted }

// Pilot exposes the underlying simulation state for advanced inspection
// and for the benchmark harness. It is nil for a study whose configuration
// failed validation (see Err).
func (s *Study) Pilot() *sim.Pilot { return s.pilot }

// Detections returns detected site compromises in first-login order. It
// is nil for a study whose configuration failed validation: no monitor
// ran.
func (s *Study) Detections() []*Detection {
	if s.pilot == nil {
		return nil
	}
	return s.pilot.Monitor.Detections()
}

// Classify returns what the detection implies about the site's password
// storage (plaintext-equivalent vs hashed). It is BreachIndeterminate for
// a study whose configuration failed validation.
func (s *Study) Classify(d *Detection) BreachClass {
	if s.pilot == nil {
		return BreachIndeterminate
	}
	return s.pilot.Monitor.Classify(d)
}

// IntegrityOK reports whether the monitor saw zero integrity alarms: no
// unused honeypot account was ever accessed. It is false for a study whose
// configuration failed validation, where no monitor ran to vouch for it.
func (s *Study) IntegrityOK() bool { return s.pilot != nil && len(s.pilot.Monitor.Alarms()) == 0 }

// Summary renders the study status header (a formatter over Status — see
// FormatStatus) followed by every table and figure of the paper. Callers
// that used to scrape counts out of this text should read Status instead;
// Summary is presentation only. For a study whose configuration failed
// validation only the status header (naming the error) is returned.
func (s *Study) Summary() string {
	var b strings.Builder
	b.WriteString("== Study status ==\n")
	b.WriteString(FormatStatus(s.Status()))
	if s.pilot == nil {
		return b.String()
	}
	p := s.pilot
	vals := p.ValidateAll()
	b.WriteString("\n== Table 1: Estimates of accounts created by account status ==\n")
	b.WriteString(report.RenderTable1(report.Table1(vals)))
	b.WriteString("\n== Table 2: Sites with detected login activity ==\n")
	b.WriteString(report.RenderTable2(report.Table2(p)))
	b.WriteString("\n== Table 3: Login activity for compromised accounts ==\n")
	b.WriteString(report.RenderTable3(report.Table3(p)))
	b.WriteString("\n== Table 4: Registration eligibility by rank ==\n")
	b.WriteString(report.RenderTable4(report.Table4(p, report.EligibilityRanks(p))))
	b.WriteString("\n== Figure 1: Crawler termination codes ==\n")
	b.WriteString(report.RenderFig1(report.Fig1(p)))
	b.WriteString("\n== Figure 2: Registration and login timeline ==\n")
	b.WriteString(report.Fig2(p))
	b.WriteString("\n== Figure 3: Registration funnel ==\n")
	b.WriteString(report.RenderFig3(report.Fig3(p, vals)))
	b.WriteString("\n== Section 6.2: Undetected compromises ==\n")
	b.WriteString(report.RenderMisses(report.MissAnalysis(p)))
	b.WriteString("\n== Section 6.3: Disclosure ==\n")
	b.WriteString(disclosure.Render(disclosure.Summarize(p.Disclosure.Notifications())))
	b.WriteString("\n== Section 6.4: Attacker behaviour ==\n")
	b.WriteString(report.RenderSec64(report.Sec64(p)))
	return b.String()
}
