package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tripwire/internal/attacker"
	"tripwire/internal/core"
	"tripwire/internal/emailprovider"
	"tripwire/internal/snapshot"
	"tripwire/internal/webgen"
)

// A checkpoint is one snapshot.File with these sections. "config" and
// "progress" drive resume (rebuild the pilot, replay this many epochs) and
// are stored verbatim. The rest are attestation material: each holds
// uvarint(len(b)) followed by sha256(b), where b is the byte image of one
// subsystem's durable state (exportSection). Resume never reads those
// images back; it re-derives them after replay and compares digests
// section by section, so a checkpoint stays about a kilobyte however
// large the study grows. The scheduler's pending queue is deliberately
// absent — it holds closures over live subsystem state and is instead
// re-derived by re-running the deterministic schedule (see RunContext).
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
// "config" is excluded: resume may legitimately override runtime knobs
// (worker counts, checkpoint cadence) that the config section records.
var attested = []string{
	sectionProgress, sectionOutputs, sectionProvider,
	sectionLedger, sectionMonitor, sectionAttacker, sectionWebgen,
}

// encodeConfig serializes every determinism-relevant Config field.
// Metrics is runtime wiring, not state, and is skipped.
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
	e.Int(int64(cfg.Workers))
	e.Duration(cfg.NetLatency)
	e.Int(int64(cfg.CheckpointEvery))
	e.String(cfg.CheckpointDir)
	e.Int(int64(cfg.LogResidentBudget))
	e.String(cfg.LogSpillDir)
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
	cfg.Workers = int(d.Int())
	cfg.NetLatency = d.Duration()
	cfg.CheckpointEvery = int(d.Int())
	cfg.CheckpointDir = d.String()
	cfg.LogResidentBudget = int(d.Int())
	cfg.LogSpillDir = d.String()
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
		Now:        snapshot.CanonTime(p.Clock.Now()),
		SchedSeq:   p.Sched.Seq(),
		TaskSeq:    p.taskSeq,
		MailCursor: p.mailCursor,
		LastDump:   snapshot.CanonTime(p.lastDump),
		OrganicSeq: p.organicSeq,
	}
}

func encodeProgress(st progressState) []byte {
	e := snapshot.NewEncoder()
	e.Uint(st.Epochs)
	e.Int(int64(st.WavesDone))
	e.Time(st.Now)
	e.Uint(st.SchedSeq)
	e.Int(st.TaskSeq)
	e.Int(int64(st.MailCursor))
	e.Time(st.LastDump)
	e.Int(int64(st.OrganicSeq))
	return e.Bytes()
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

// domainTime is one DetectionTimes entry, sorted by domain for export.
type domainTime struct {
	Domain string
	At     time.Time
}

// outputsState is the pilot's result record: the attempt log, detection
// times, and missed breaches — everything resume must reproduce
// byte-identically for the completed prefix.
type outputsState struct {
	Attempts       []Attempt
	DetectionTimes []domainTime // sorted by domain
	Missed         []string
}

func (p *Pilot) outputs() outputsState {
	var st outputsState
	for _, a := range p.Attempts {
		a.When = snapshot.CanonTime(a.When)
		st.Attempts = append(st.Attempts, a)
	}
	for domain, at := range p.DetectionTimes {
		st.DetectionTimes = append(st.DetectionTimes, domainTime{Domain: domain, At: snapshot.CanonTime(at)})
	}
	sort.Slice(st.DetectionTimes, func(i, j int) bool {
		return st.DetectionTimes[i].Domain < st.DetectionTimes[j].Domain
	})
	// MissedBreaches is appended in campaign-map order (recordMisses runs
	// once, at the very end of a run, after the last possible checkpoint);
	// sort the export so the section is a deterministic function of state.
	st.Missed = append(st.Missed, p.MissedBreaches...)
	sort.Strings(st.Missed)
	return st
}

func encodeOutputs(st outputsState) []byte {
	e := snapshot.NewEncoder()
	e.Uint(uint64(len(st.Attempts)))
	for i := range st.Attempts {
		a := &st.Attempts[i]
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
	e.Uint(uint64(len(st.DetectionTimes)))
	for _, dt := range st.DetectionTimes {
		e.String(dt.Domain)
		e.Time(dt.At)
	}
	e.Uint(uint64(len(st.Missed)))
	for _, m := range st.Missed {
		e.String(m)
	}
	return e.Bytes()
}

// exportSection renders one attestation section from live pilot state.
// Must run on the driver goroutine between epochs.
func (p *Pilot) exportSection(name string) []byte {
	switch name {
	case sectionProgress:
		return encodeProgress(p.progress())
	case sectionOutputs:
		return encodeOutputs(p.outputs())
	case sectionProvider:
		return emailprovider.EncodeProviderState(p.Provider.ExportState())
	case sectionLedger:
		return core.EncodeLedgerState(p.Ledger.ExportState())
	case sectionMonitor:
		return core.EncodeMonitorState(p.Monitor.ExportState())
	case sectionAttacker:
		st := attacker.AttackerState{
			Campaign: p.Campaign.ExportState(),
			Stuffer:  p.Stuffer.ExportState(),
		}
		return attacker.EncodeAttackerState(&st)
	case sectionWebgen:
		return webgen.EncodeUniverseState(p.Universe.ExportState())
	default:
		panic("sim: unknown snapshot section " + name)
	}
}

// Checkpoint assembles a resumable snapshot of the pilot's current state:
// the config and progress sections verbatim, then a digest of every other
// attested section. Must be called between epochs (RunContext's driver
// loop does), when no parallel work is in flight.
func (p *Pilot) Checkpoint() (*snapshot.File, error) {
	if err := p.Provider.SpillErr(); err != nil {
		// A failed cold tier means AllLogins — and so the provider section —
		// is missing events; a checkpoint written now would attest garbage.
		return nil, fmt.Errorf("login-log spill failed earlier: %w", err)
	}
	f := snapshot.New()
	f.Add(sectionConfig, encodeConfig(&p.Cfg))
	for _, name := range attested {
		b := p.exportSection(name)
		if name != sectionProgress {
			b = digest(b)
		}
		f.Add(name, b)
	}
	return f, nil
}

// digest is what a checkpoint stores for an attested section other than
// progress: uvarint(len(b)) followed by sha256(b).
func digest(b []byte) []byte {
	sum := sha256.Sum256(b)
	return append(binary.AppendUvarint(nil, uint64(len(b))), sum[:]...)
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
// diverging section. Called once, after replay.
func (p *Pilot) attest(f *snapshot.File) error {
	for _, name := range attested {
		want, ok := f.Section(name)
		if !ok {
			return fmt.Errorf("sim: resume: %w: snapshot has no %q section", snapshot.ErrCorrupt, name)
		}
		b := p.exportSection(name)
		got, wantLen := b, uint64(len(want))
		if name != sectionProgress {
			got = digest(b)
			wantLen, _ = binary.Uvarint(want)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("sim: resume: replayed state diverges from checkpoint in section %q (%d vs %d bytes) — the snapshot was taken with a different seed, configuration, or code version", name, len(b), wantLen)
		}
	}
	return nil
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
// mutate, when non-nil, may adjust runtime knobs (Workers, Metrics,
// checkpoint cadence and directories) on the restored configuration before
// the pilot is built. Changing
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
