package tripwire_test

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"tripwire"
)

// resumeConfig is a fast study with several waves, breaches, and dumps.
func resumeConfig() tripwire.Config {
	cfg := tripwire.SmallConfig()
	cfg.Web.NumSites = 260
	start := func(y int, m time.Month, d int) time.Time {
		return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
	}
	cfg.Batches = []tripwire.Batch{
		{Name: "seed", Start: start(2014, 12, 10), Duration: 14 * 24 * time.Hour, FromRank: 1, ToRank: 130},
		{Name: "refresh", Start: start(2015, 11, 20), Duration: 21 * 24 * time.Hour, FromRank: 1, ToRank: 200},
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

// TestStudyCheckpointResume cancels a study mid-run, resumes the newest
// checkpoint through the public API, and requires the resumed study's full
// report to match an uninterrupted run's byte for byte.
func TestStudyCheckpointResume(t *testing.T) {
	wantSummary := tripwire.New(tripwire.WithConfig(resumeConfig())).Run().Summary()

	dir := t.TempDir()
	s := tripwire.New(
		tripwire.WithConfig(resumeConfig()),
		tripwire.WithCheckpoint(dir, 1),
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		waves := 0
		for ev := range s.Events() {
			if ev.Kind == tripwire.EventWaveDone {
				if waves++; waves == 2 {
					cancel()
				}
			}
		}
	}()
	if err := s.RunContext(ctx); err == nil || !s.Interrupted() {
		t.Fatalf("study was not interrupted (err=%v)", err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.twsnap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoints written (err=%v)", err)
	}
	sort.Strings(files)

	resumed, err := tripwire.Resume(files[len(files)-1], tripwire.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var events []tripwire.Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range resumed.Events() {
			events = append(events, ev)
		}
	}()
	if err := resumed.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if resumed.Interrupted() {
		t.Fatal("resumed study reports Interrupted")
	}
	if got := resumed.Summary(); got != wantSummary {
		t.Fatal("resumed study's summary differs from the uninterrupted run")
	}
	// The resumed study replays the event sequence from the very start.
	if len(events) == 0 || events[0].Kind != tripwire.EventWaveDone || events[0].FromRank != 1 {
		t.Fatalf("resumed study did not replay events from the start: %+v", events[:min(3, len(events))])
	}
}

// TestResumeBadPath: Resume surfaces unreadable or corrupt snapshots as
// errors, never as a half-built study.
func TestResumeBadPath(t *testing.T) {
	if _, err := tripwire.Resume(filepath.Join(t.TempDir(), "nope.twsnap")); err == nil {
		t.Fatal("Resume of a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.twsnap")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tripwire.Resume(bad); err == nil {
		t.Fatal("Resume of a corrupt file succeeded")
	}
}

// TestStudyLogSpillOption: WithLogSpill bounds the resident login log
// without changing any result.
func TestStudyLogSpillOption(t *testing.T) {
	ref := tripwire.New(tripwire.WithConfig(resumeConfig())).Run()
	sp := tripwire.New(
		tripwire.WithConfig(resumeConfig()),
		tripwire.WithLogSpill(t.TempDir(), 16),
	).Run()
	if err := sp.Pilot().Provider.SpillErr(); err != nil {
		t.Fatal(err)
	}
	if sp.Pilot().Provider.SpilledSegments() == 0 {
		t.Fatal("budget never forced a spill")
	}
	if got, want := sp.Summary(), ref.Summary(); got != want {
		t.Fatal("spilling study's summary differs from all-resident run")
	}
}
