package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"tripwire/internal/snapshot"
)

// A checkpoint is one snapshot.File with these sections. "config" and
// "progress" drive resume (rebuild the pilot, replay this many epochs) and
// are stored verbatim. The rest are attestation material: each holds
// uvarint(len(b)) followed by sha256(b), where b is the byte image of one
// subsystem's durable state (exportSection), streamed into the digest
// rather than built. Resume never reads those images back; it re-derives
// them after replay and compares digests section by section, so a
// checkpoint stays about a kilobyte however large the study grows. The
// scheduler's pending queue is deliberately absent — it holds closures
// over live subsystem state and is instead re-derived by re-running the
// deterministic schedule (see RunContext).
const (
	sectionConfig   = "config"
	sectionProgress = "progress"
	sectionOutputs  = "outputs"
	sectionProvider = "provider"
	sectionLedger   = "ledger"
	sectionMonitor  = "monitor"
	sectionAttacker = "attacker"
	sectionWebgen   = "webgen"
)

// attested lists the sections compared after replay, in comparison order.
// "config" is excluded: resume reads it back instead.
var attested = []string{
	sectionProgress, sectionOutputs, sectionProvider,
	sectionLedger, sectionMonitor, sectionAttacker, sectionWebgen,
}

// encodeConfig serializes every Config field that determines the run. The
// runtime knobs — Workers, NetLatency, the checkpoint cadence and
// directory, the login log's resident budget and spill directory — and the
// Metrics wiring are skipped: they change how a run executes, never what
// it computes, and a resuming caller passes its own (WithWorkers,
// WithCheckpoint, WithLogSpill). Leaving them out also keeps a checkpoint
// independent of where its directories are.
func encodeConfig(cfg *Config) []byte {
	e := snapshot.NewEncoder()
	e.Int(cfg.Seed)

	w := &cfg.Web
	e.Int(int64(w.NumSites))
	e.Int(w.Seed)
	for _, f := range []float64{
		w.LoadFailureTop, w.LoadFailureTail, w.NonEnglish,
		w.NoRegistrationTop, w.NoRegistrationTail, w.IneligibleOther,
		w.CaptchaRate, w.MultiStageRate, w.ObscureLink, w.OddFields,
		w.JSFormRate, w.SpecialCharPwd, w.EmailVerifyRate,
		w.WelcomeEmailRate, w.FlakyBackendRate, w.VagueResponse,
		w.PlaintextFrac, w.ReversibleFrac, w.WeakHashFrac, w.StrongHashFrac,
	} {
		e.Float(f)
	}

	e.Time(cfg.Start)
	e.Time(cfg.End)
	e.Uint(uint64(len(cfg.Batches)))
	for _, b := range cfg.Batches {
		e.String(b.Name)
		e.Time(b.Start)
		e.Duration(b.Duration)
		e.Int(int64(b.FromRank))
		e.Int(int64(b.ToRank))
		e.Bool(b.Manual)
	}
	e.Int(int64(cfg.NumUnused))
	e.Int(int64(cfg.NumControls))
	e.Duration(cfg.ControlLoginEvery)
	e.Int(int64(cfg.BreachRegistered))
	e.Int(int64(cfg.BreachUnregistered))
	e.Time(cfg.BreachWindowStart)
	e.Time(cfg.BreachWindowEnd)
	e.Int(int64(cfg.OrganicUsersMin))
	e.Int(int64(cfg.OrganicUsersMax))
	e.Uint(uint64(len(cfg.DumpDates)))
	for _, d := range cfg.DumpDates {
		e.Time(d)
	}
	e.Duration(cfg.Retention)
	e.Float(cfg.CaptchaImageErr)
	e.Float(cfg.CaptchaKnowledgeErr)
	e.Float(cfg.CrawlerFaultRate)
	e.Bool(cfg.UseLanguagePacks)
	e.Bool(cfg.UseSearchEngine)
	e.Bool(cfg.UseMultiStage)
	e.Bool(cfg.ReRegisterDetected)
	return e.Bytes()
}

// decodeConfig is the inverse of encodeConfig.
func decodeConfig(data []byte) (Config, error) {
	d := snapshot.NewDecoder(data)
	var cfg Config
	cfg.Seed = d.Int()

	w := &cfg.Web
	w.NumSites = int(d.Int())
	w.Seed = d.Int()
	for _, p := range []*float64{
		&w.LoadFailureTop, &w.LoadFailureTail, &w.NonEnglish,
		&w.NoRegistrationTop, &w.NoRegistrationTail, &w.IneligibleOther,
		&w.CaptchaRate, &w.MultiStageRate, &w.ObscureLink, &w.OddFields,
		&w.JSFormRate, &w.SpecialCharPwd, &w.EmailVerifyRate,
		&w.WelcomeEmailRate, &w.FlakyBackendRate, &w.VagueResponse,
		&w.PlaintextFrac, &w.ReversibleFrac, &w.WeakHashFrac, &w.StrongHashFrac,
	} {
		*p = d.Float()
	}

	cfg.Start = d.Time()
	cfg.End = d.Time()
	if n := d.Count(6); n > 0 {
		cfg.Batches = make([]Batch, n)
		for i := range cfg.Batches {
			b := &cfg.Batches[i]
			b.Name = d.String()
			b.Start = d.Time()
			b.Duration = d.Duration()
			b.FromRank = int(d.Int())
			b.ToRank = int(d.Int())
			b.Manual = d.Bool()
		}
	}
	cfg.NumUnused = int(d.Int())
	cfg.NumControls = int(d.Int())
	cfg.ControlLoginEvery = d.Duration()
	cfg.BreachRegistered = int(d.Int())
	cfg.BreachUnregistered = int(d.Int())
	cfg.BreachWindowStart = d.Time()
	cfg.BreachWindowEnd = d.Time()
	cfg.OrganicUsersMin = int(d.Int())
	cfg.OrganicUsersMax = int(d.Int())
	if n := d.Count(1); n > 0 {
		cfg.DumpDates = make([]time.Time, n)
		for i := range cfg.DumpDates {
			cfg.DumpDates[i] = d.Time()
		}
	}
	cfg.Retention = d.Duration()
	cfg.CaptchaImageErr = d.Float()
	cfg.CaptchaKnowledgeErr = d.Float()
	cfg.CrawlerFaultRate = d.Float()
	cfg.UseLanguagePacks = d.Bool()
	cfg.UseSearchEngine = d.Bool()
	cfg.UseMultiStage = d.Bool()
	cfg.ReRegisterDetected = d.Bool()
	if err := d.Err(); err != nil {
		return Config{}, fmt.Errorf("config section: %w", err)
	}
	if d.Remaining() != 0 {
		return Config{}, fmt.Errorf("config section: %w: %d trailing bytes", snapshot.ErrCorrupt, d.Remaining())
	}
	return cfg, nil
}

// progressState is the run's position on the timeline plus every serial
// cursor the driver goroutine owns. Epochs is the resume unit; the rest
// are determinism fingerprints that make the attestation sharp (a
// diverging replay shows up here even when the big sections happen to
// collide).
type progressState struct {
	Epochs     uint64 // completed timeline epochs
	WavesDone  int    // completed registration waves
	Now        time.Time
	SchedSeq   uint64 // next scheduler sequence number
	TaskSeq    int64  // crawl-task creation counter
	MailCursor int
	LastDump   time.Time
	OrganicSeq int
}

func (p *Pilot) progress() progressState {
	return progressState{
		Epochs:     p.epochsRun,
		WavesDone:  p.wavesDone,
		Now:        p.Clock.Now(),
		SchedSeq:   p.Sched.Seq(),
		TaskSeq:    p.taskSeq,
		MailCursor: p.mailCursor,
		LastDump:   p.lastDump,
		OrganicSeq: p.organicSeq,
	}
}

func encodeProgress(e *snapshot.Encoder, st progressState) {
	e.Uint(st.Epochs)
	e.Int(int64(st.WavesDone))
	e.Time(st.Now)
	e.Uint(st.SchedSeq)
	e.Int(st.TaskSeq)
	e.Int(int64(st.MailCursor))
	e.Time(st.LastDump)
	e.Int(int64(st.OrganicSeq))
}

func decodeProgress(data []byte) (progressState, error) {
	d := snapshot.NewDecoder(data)
	st := progressState{
		Epochs:     d.Uint(),
		WavesDone:  int(d.Int()),
		Now:        d.Time(),
		SchedSeq:   d.Uint(),
		TaskSeq:    d.Int(),
		MailCursor: int(d.Int()),
		LastDump:   d.Time(),
		OrganicSeq: int(d.Int()),
	}
	if err := d.Err(); err != nil {
		return progressState{}, fmt.Errorf("progress section: %w", err)
	}
	if d.Remaining() != 0 {
		return progressState{}, fmt.Errorf("progress section: %w: %d trailing bytes", snapshot.ErrCorrupt, d.Remaining())
	}
	return st, nil
}

// encodeOutputs writes the pilot's result record: the attempt log,
// detection times sorted by domain, and missed breaches — everything resume
// must reproduce byte-identically for the completed prefix.
func (p *Pilot) encodeOutputs(e *snapshot.Encoder) {
	e.Uint(uint64(len(p.Attempts)))
	for i := range p.Attempts {
		a := &p.Attempts[i]
		e.String(a.Domain)
		e.Int(int64(a.Rank))
		e.Int(int64(a.Class))
		e.Int(int64(a.Code))
		e.Bool(a.Exposed)
		e.Bool(a.Manual)
		e.Time(a.When)
		e.String(a.Email)
		e.Int(int64(a.PageLoad))
	}
	e.Uint(uint64(len(p.DetectionTimes)))
	for _, domain := range snapshot.SortedKeys(p.DetectionTimes) {
		e.String(domain)
		e.Time(p.DetectionTimes[domain])
	}
	// MissedBreaches is appended in campaign-map order (recordMisses runs
	// once, at the very end of a run, after the last possible checkpoint);
	// sort it so the section is a deterministic function of state.
	missed := slices.Clone(p.MissedBreaches)
	slices.Sort(missed)
	e.Uint(uint64(len(missed)))
	for _, m := range missed {
		e.String(m)
	}
}

// exportSection writes one attestation section's image of live pilot
// state to e. Must run on the driver goroutine between epochs.
func (p *Pilot) exportSection(e *snapshot.Encoder, name string) {
	switch name {
	case sectionProgress:
		encodeProgress(e, p.progress())
	case sectionOutputs:
		p.encodeOutputs(e)
	case sectionProvider:
		p.Provider.EncodeSection(e)
	case sectionLedger:
		p.Ledger.EncodeSection(e)
	case sectionMonitor:
		p.Monitor.EncodeSection(e)
	case sectionAttacker:
		p.Campaign.EncodeSection(e)
	case sectionWebgen:
		p.Universe.EncodeSection(e)
	default:
		panic("sim: unknown snapshot section " + name)
	}
}

// Checkpoint assembles a resumable snapshot of the pilot's current state:
// the config and progress sections verbatim, then the streamed digest of
// every other attested section. Must be called between epochs
// (RunContext's driver loop does), when no parallel work is in flight.
func (p *Pilot) Checkpoint() (*snapshot.File, error) {
	f := snapshot.New()
	f.Add(sectionConfig, encodeConfig(&p.Cfg))
	for _, name := range attested {
		if name == sectionProgress {
			e := snapshot.NewEncoder()
			p.exportSection(e, name)
			f.Add(name, e.Bytes())
			continue
		}
		e := snapshot.NewDigestEncoder()
		p.exportSection(e, name)
		f.Add(name, e.Digest())
	}
	// A cold segment that cannot be read drops its events from AllLogins,
	// so the provider digest would cover a truncated log. The check comes
	// after the export, so it also sees a read that failed during it.
	if err := p.Provider.SpillErr(); err != nil {
		return nil, fmt.Errorf("login-log spill failed: %w", err)
	}
	return f, nil
}

// WriteCheckpoint writes a checkpoint atomically to path, creating parent
// directories as needed.
func (p *Pilot) WriteCheckpoint(path string) error {
	f, err := p.Checkpoint()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return snapshot.WriteFile(path, f)
}

// attest compares every rebuilt state section against the snapshot —
// progress byte for byte, the rest by length and digest — naming the first
// diverging section. Called once, after replay. The rebuilt sections come
// from Checkpoint, so a cold tier that cannot be read fails with its spill
// error rather than as a divergence.
func (p *Pilot) attest(f *snapshot.File) error {
	mine, err := p.Checkpoint()
	if err != nil {
		return fmt.Errorf("sim: resume: %w", err)
	}
	for _, name := range attested {
		want, ok := f.Section(name)
		if !ok {
			return fmt.Errorf("sim: resume: %w: snapshot has no %q section", snapshot.ErrCorrupt, name)
		}
		if got, _ := mine.Section(name); !bytes.Equal(got, want) {
			return fmt.Errorf("sim: resume: replayed state diverges from checkpoint in section %q (%d vs %d bytes) — the snapshot was taken with a different seed, configuration, or code version", name, imageLen(name, got), imageLen(name, want))
		}
	}
	return nil
}

// imageLen is the length of the section image that a checkpoint's section
// b stands for: progress is stored whole, the rest as uvarint(length)
// followed by the digest.
func imageLen(name string, b []byte) uint64 {
	if name == sectionProgress {
		return uint64(len(b))
	}
	n, _ := binary.Uvarint(b)
	return n
}

// EpochsRun returns how many timeline epochs the pilot has completed; a
// checkpoint records it and resume replays to it.
func (p *Pilot) EpochsRun() uint64 { return p.epochsRun }

// WavesDone returns how many registration waves have completed.
func (p *Pilot) WavesDone() int { return p.wavesDone }

// ResumePilot rebuilds a pilot from a checkpoint written by
// WriteCheckpoint. The returned pilot's RunContext first re-executes the
// checkpoint's recorded epoch count — the scheduler queue holds closures
// and cannot be serialized, so resume replays the deterministic prefix —
// then verifies the rebuilt state against the snapshot section by section
// and continues to the configured end. The completed run is
// byte-identical to an uninterrupted one, at any worker count.
//
// The checkpoint records no runtime knob, so the restored configuration
// has none: no workers bound, no latency, no checkpoints and no spilling.
// mutate, when non-nil, may set them (Workers, NetLatency, Metrics,
// checkpoint cadence and directories, the login log's spill) before the
// pilot is built. Changing
// determinism-relevant fields (seed, batches, rates, window) makes the
// replay diverge from the snapshot, which RunContext reports as an error
// naming the diverging section.
func ResumePilot(path string, mutate func(*Config)) (*Pilot, error) {
	f, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: resume %s: %w", path, err)
	}
	// The config section's layout is versioned with the container; an older
	// checkpoint would misread here, so refuse it by name.
	if f.Version != snapshot.Version {
		return nil, fmt.Errorf("sim: resume %s: checkpoint format v%d, this build reads v%d", path, f.Version, snapshot.Version)
	}
	cdata, ok := f.Section(sectionConfig)
	if !ok {
		return nil, fmt.Errorf("sim: resume %s: %w: no %q section", path, snapshot.ErrCorrupt, sectionConfig)
	}
	cfg, err := decodeConfig(cdata)
	if err != nil {
		return nil, fmt.Errorf("sim: resume %s: %w", path, err)
	}
	pdata, ok := f.Section(sectionProgress)
	if !ok {
		return nil, fmt.Errorf("sim: resume %s: %w: no %q section", path, snapshot.ErrCorrupt, sectionProgress)
	}
	prog, err := decodeProgress(pdata)
	if err != nil {
		return nil, fmt.Errorf("sim: resume %s: %w", path, err)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if err := Validate(cfg); err != nil {
		return nil, fmt.Errorf("sim: resume %s: %w", path, err)
	}
	p := NewPilot(cfg)
	p.replayEpochs = prog.Epochs
	p.resumeSnap = f
	return p, nil
}
