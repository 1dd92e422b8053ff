package sim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/identity"
	"tripwire/internal/snapshot"
)

func identityClass(rng *rand.Rand) identity.PasswordClass {
	return identity.PasswordClass(rng.Intn(2))
}

func crawlerCode(rng *rand.Rand) crawler.Code {
	return crawler.Code(rng.Intn(6))
}

// resumeTestConfig is a fast study that still schedules several waves, a
// retention-gapped dump calendar, breaches, and a manual batch — so resume
// crosses every kind of scheduler event.
func resumeTestConfig() Config {
	cfg := SmallConfig()
	cfg.Web.NumSites = 260
	cfg.Batches = []Batch{
		{Name: "seed", Start: date(2014, 12, 10), Duration: 14 * 24 * time.Hour, FromRank: 1, ToRank: 130},
		{Name: "refresh", Start: date(2015, 11, 20), Duration: 21 * 24 * time.Hour, FromRank: 1, ToRank: 200},
		{Name: "manual", Start: date(2016, 5, 15), Duration: 7 * 24 * time.Hour, FromRank: 1, ToRank: 64, Manual: true},
	}
	cfg.NumUnused = 40
	cfg.NumControls = 2
	cfg.BreachRegistered = 4
	cfg.BreachUnregistered = 2
	cfg.OrganicUsersMin = 5
	cfg.OrganicUsersMax = 15
	cfg.Workers = 2
	return cfg
}

// fingerprint renders every attested state section of a finished pilot;
// two byte-equal fingerprints mean identical Attempts, DetectionTimes,
// AllLogins, ledger, monitor, attacker, and materialization state.
func fingerprint(p *Pilot) map[string][]byte {
	out := make(map[string][]byte)
	for _, name := range attested {
		out[name] = p.exportSection(name)
	}
	return out
}

func sameFingerprint(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	for _, name := range attested {
		if !bytes.Equal(got[name], want[name]) {
			t.Fatalf("%s: section %q differs from uninterrupted reference (%d vs %d bytes)",
				label, name, len(got[name]), len(want[name]))
		}
	}
}

func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.twsnap"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// eventLine flattens an Event for sequence comparison.
func eventLine(ev Event) string {
	s := fmt.Sprintf("%s %s %q %d-%d a=%d m=%v", ev.Kind, ev.At.Format(time.RFC3339), ev.Batch, ev.FromRank, ev.ToRank, ev.Attempts, ev.Manual)
	if ev.Detection != nil {
		s += " det=" + ev.Detection.Domain
	}
	return s
}

// TestResumeByteIdentical is the tentpole invariant: cancel-at-any-wave-
// boundary + resume = the uninterrupted run, byte for byte, at any worker
// count. Every checkpoint the run produced is resumed at several worker
// counts and fingerprinted against the reference.
func TestResumeByteIdentical(t *testing.T) {
	ref := NewPilot(resumeTestConfig())
	var refEvents []string
	ref.OnEvent = func(ev Event) { refEvents = append(refEvents, eventLine(ev)) }
	ref.Run()
	want := fingerprint(ref)

	dir := t.TempDir()
	cfg := resumeTestConfig()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	base := NewPilot(cfg).Run()
	sameFingerprint(t, "checkpointing run", fingerprint(base), want)

	files := checkpointFiles(t, dir)
	if len(files) < 4 {
		t.Fatalf("only %d checkpoints written, want one per wave (several)", len(files))
	}
	workerGrid := []int{1, 2, 4, 8}
	if testing.Short() {
		workerGrid = []int{1, 4}
		files = []string{files[0], files[len(files)/2], files[len(files)-1]}
	}
	for _, file := range files {
		for _, w := range workerGrid {
			label := fmt.Sprintf("%s workers=%d", filepath.Base(file), w)
			p, err := ResumePilot(file, func(c *Config) {
				c.Workers = w
				c.CheckpointDir = ""
				c.CheckpointEvery = 0
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var events []string
			p.OnEvent = func(ev Event) { events = append(events, eventLine(ev)) }
			if err := p.RunContext(context.Background()); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameFingerprint(t, label, fingerprint(p), want)
			// A resumed run replays the full event sequence from the start.
			if !reflect.DeepEqual(events, refEvents) {
				t.Fatalf("%s: event sequence differs (%d vs %d events)", label, len(events), len(refEvents))
			}
		}
	}
}

// TestResumeAfterCancel exercises the real workflow end to end: a run is
// cancelled mid-study, the latest checkpoint on disk is resumed, and the
// completed run matches the uninterrupted reference.
func TestResumeAfterCancel(t *testing.T) {
	want := fingerprint(NewPilot(resumeTestConfig()).Run())

	dir := t.TempDir()
	cfg := resumeTestConfig()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	p := NewPilot(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waves := 0
	p.OnEvent = func(ev Event) {
		if ev.Kind == EventWaveDone {
			if waves++; waves == 3 {
				cancel()
			}
		}
	}
	err := p.RunContext(ctx)
	if err == nil || !p.Interrupted {
		t.Fatalf("run was not interrupted (err=%v, interrupted=%v)", err, p.Interrupted)
	}

	files := checkpointFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no checkpoint survived the cancelled run")
	}
	latest := files[len(files)-1]
	resumed, err := ResumePilot(latest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameFingerprint(t, "resumed "+filepath.Base(latest), fingerprint(resumed), want)
	// The resumed run keeps checkpointing past the cancellation point: it
	// must end with more checkpoints on disk than the cancelled run left.
	if after := checkpointFiles(t, dir); len(after) <= len(files) {
		t.Fatalf("resumed run wrote no further checkpoints (%d -> %d)", len(files), len(after))
	}
}

// TestResumeDetectsDivergence: replaying under a different seed must fail
// loudly, naming a diverging section — not silently continue from state
// that does not match the snapshot.
func TestResumeDetectsDivergence(t *testing.T) {
	dir := t.TempDir()
	cfg := resumeTestConfig()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	NewPilot(cfg).Run()
	files := checkpointFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no checkpoints written")
	}

	p, err := ResumePilot(files[len(files)-1], func(c *Config) { c.Seed++ })
	if err != nil {
		t.Fatal(err)
	}
	err = p.RunContext(context.Background())
	if err == nil {
		t.Fatal("resume under a different seed completed without error")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("diverges")) {
		t.Fatalf("divergence error does not name the problem: %v", err)
	}
}

// TestResumeRejectsBadFiles: garbage and section-less snapshots produce
// errors, not panics or half-built pilots.
func TestResumeRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.twsnap")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumePilot(garbage, nil); err == nil {
		t.Fatal("garbage file resumed without error")
	}
	if _, err := ResumePilot(filepath.Join(dir, "missing.twsnap"), nil); err == nil {
		t.Fatal("missing file resumed without error")
	}

	// A checkpoint from an older format version is refused by version, not
	// misread through the current config-section layout.
	old := snapshot.New()
	old.Version = snapshot.Version - 1
	cfg := resumeTestConfig()
	old.Add(sectionConfig, encodeConfig(&cfg))
	oldPath := filepath.Join(dir, "old.twsnap")
	if err := snapshot.WriteFile(oldPath, old); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumePilot(oldPath, nil); err == nil || !bytes.Contains([]byte(err.Error()), []byte("checkpoint format v")) {
		t.Fatalf("older-format checkpoint: err = %v, want a format-version refusal", err)
	}
}

// TestPilotSpillInvariance: a pilot whose provider spills its login log to
// disk finishes in exactly the state of an all-resident pilot — and a
// checkpoint taken mid-run under spilling resumes to the same state too.
func TestPilotSpillInvariance(t *testing.T) {
	want := fingerprint(NewPilot(resumeTestConfig()).Run())

	ckptDir := t.TempDir()
	cfg := resumeTestConfig()
	cfg.LogSpillDir = t.TempDir()
	cfg.LogResidentBudget = 16
	cfg.CheckpointDir = ckptDir
	cfg.CheckpointEvery = 2
	sp := NewPilot(cfg).Run()
	if err := sp.Provider.SpillErr(); err != nil {
		t.Fatal(err)
	}
	if sp.Provider.SpilledSegments() == 0 {
		t.Fatal("budget never forced a spill; the invariance check is vacuous")
	}
	if got := sp.Provider.ResidentLogSize(); got > cfg.LogResidentBudget {
		t.Fatalf("resident log %d exceeds budget %d", got, cfg.LogResidentBudget)
	}
	sameFingerprint(t, "spilling run", fingerprint(sp), want)

	files := checkpointFiles(t, ckptDir)
	if len(files) < 2 {
		t.Fatalf("only %d checkpoints written", len(files))
	}
	// Resume the middle checkpoint with a fresh spill directory (the
	// replay regenerates the cold tier from scratch).
	p, err := ResumePilot(files[len(files)/2], func(c *Config) {
		c.LogSpillDir = t.TempDir()
		c.CheckpointDir = ""
		c.CheckpointEvery = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameFingerprint(t, "resumed spilling run", fingerprint(p), want)
}

// TestConfigCodecRoundTrip: encode→decode is the identity on Config and
// the re-encoding is byte-stable, across randomized field values.
func TestConfigCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randTime := func() time.Time { return time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).UTC() }
	for i := 0; i < 200; i++ {
		cfg := SmallConfig()
		cfg.Seed = rng.Int63()
		cfg.Web.NumSites = 1 + rng.Intn(1e6)
		cfg.Web.CaptchaRate = rng.Float64()
		cfg.Start = randTime()
		cfg.End = randTime()
		cfg.Batches = nil
		for j := rng.Intn(5); j > 0; j-- {
			cfg.Batches = append(cfg.Batches, Batch{
				Name:     fmt.Sprintf("batch-%d", rng.Intn(1000)),
				Start:    randTime(),
				Duration: time.Duration(rng.Int63n(1e15)),
				FromRank: rng.Intn(1000),
				ToRank:   rng.Intn(100000),
				Manual:   rng.Intn(2) == 0,
			})
		}
		cfg.DumpDates = nil
		for j := rng.Intn(6); j > 0; j-- {
			cfg.DumpDates = append(cfg.DumpDates, randTime())
		}
		cfg.CheckpointEvery = rng.Intn(10)
		cfg.CheckpointDir = fmt.Sprintf("/tmp/ckpt-%d", rng.Intn(100))
		cfg.LogResidentBudget = rng.Intn(1 << 20)
		cfg.LogSpillDir = fmt.Sprintf("spill-%d", rng.Intn(100))
		cfg.NetLatency = time.Duration(rng.Int63n(1e9))
		cfg.EagerAccounts = rng.Intn(2) == 0

		enc := encodeConfig(&cfg)
		got, err := decodeConfig(enc)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, cfg) {
			t.Fatalf("round %d: decoded config differs\n got %+v\nwant %+v", i, got, cfg)
		}
		if !bytes.Equal(encodeConfig(&got), enc) {
			t.Fatalf("round %d: re-encoding is not byte-stable", i)
		}
	}
	// Truncations must error, never panic.
	full := encodeConfig(&Config{})
	for n := 0; n < len(full); n++ {
		if _, err := decodeConfig(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded silently", n)
		}
	}
}

// TestProgressOutputsCodecRoundTrip covers the two driver-state sections.
func TestProgressOutputsCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	randTime := func() time.Time { return time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).UTC() }
	for i := 0; i < 200; i++ {
		prog := progressState{
			Epochs:     rng.Uint64(),
			WavesDone:  rng.Intn(1 << 20),
			Now:        randTime(),
			SchedSeq:   rng.Uint64(),
			TaskSeq:    rng.Int63(),
			MailCursor: rng.Intn(1 << 20),
			LastDump:   randTime(),
			OrganicSeq: rng.Intn(1 << 20),
		}
		enc := encodeProgress(prog)
		got, err := decodeProgress(enc)
		if err != nil {
			t.Fatalf("progress round %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, prog) {
			t.Fatalf("progress round %d: decoded state differs", i)
		}

		var out outputsState
		for j := rng.Intn(6); j > 0; j-- {
			out.Attempts = append(out.Attempts, Attempt{
				Domain:   fmt.Sprintf("site-%d.test", rng.Intn(1000)),
				Rank:     rng.Intn(100000),
				Class:    identityClass(rng),
				Code:     crawlerCode(rng),
				Exposed:  rng.Intn(2) == 0,
				Manual:   rng.Intn(2) == 0,
				When:     randTime(),
				Email:    fmt.Sprintf("a%d@x.test", rng.Intn(1000)),
				PageLoad: rng.Intn(20),
			})
		}
		for j := rng.Intn(4); j > 0; j-- {
			out.DetectionTimes = append(out.DetectionTimes, domainTime{
				Domain: fmt.Sprintf("d-%d.test", rng.Intn(1000)), At: randTime(),
			})
		}
		for j := rng.Intn(4); j > 0; j-- {
			out.Missed = append(out.Missed, fmt.Sprintf("m-%d.test", rng.Intn(1000)))
		}
		oenc := encodeOutputs(out)
		ogot, err := decodeOutputs(oenc)
		if err != nil {
			t.Fatalf("outputs round %d: %v", i, err)
		}
		if !reflect.DeepEqual(ogot, out) {
			t.Fatalf("outputs round %d: decoded state differs\n got %+v\nwant %+v", i, ogot, out)
		}
		if !bytes.Equal(encodeOutputs(ogot), oenc) {
			t.Fatalf("outputs round %d: re-encoding is not byte-stable", i)
		}
		for n := 0; n < len(oenc); n++ {
			if _, err := decodeOutputs(oenc[:n]); err == nil {
				t.Fatalf("outputs truncation to %d bytes decoded silently", n)
			}
		}
	}
}
