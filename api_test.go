package tripwire_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tripwire"
)

func TestNewDefaultsToDefaultConfig(t *testing.T) {
	s := tripwire.New()
	if got, want := s.Pilot().Cfg.Web.NumSites, tripwire.DefaultConfig().Web.NumSites; got != want {
		t.Fatalf("New() sites = %d, want DefaultConfig's %d", got, want)
	}
}

func TestOptionsOverrideConfigRegardlessOfOrder(t *testing.T) {
	// Targeted options are applied after the base config, so passing
	// WithConfig last must not clobber WithSeed/WithWorkers.
	s := tripwire.New(
		tripwire.WithSeed(7),
		tripwire.WithWorkers(3),
		tripwire.WithConfig(tripwire.SmallConfig()),
	)
	cfg := s.Pilot().Cfg
	if cfg.Seed != 7 {
		t.Errorf("seed = %d, want 7", cfg.Seed)
	}
	if cfg.Workers != 3 {
		t.Errorf("workers = %d, want 3", cfg.Workers)
	}
	if got, want := cfg.Web.NumSites, tripwire.SmallConfig().Web.NumSites; got != want {
		t.Errorf("sites = %d, want SmallConfig's %d", got, want)
	}
}

func TestRunSurfacesValidationError(t *testing.T) {
	cfg := tripwire.SmallConfig()
	cfg.Web.NumSites = 0
	s := tripwire.New(tripwire.WithConfig(cfg)).Run()
	err := s.Err()
	if err == nil {
		t.Fatal("Run swallowed the validation error")
	}
	if !strings.Contains(err.Error(), "NumSites") {
		t.Fatalf("error %q does not mention the invalid field", err)
	}
	// The events channel must still close so consumers don't hang.
	for range s.Events() {
		t.Fatal("events emitted for a run that never started")
	}
}

func TestRunContextIdempotentError(t *testing.T) {
	cfg := tripwire.SmallConfig()
	cfg.Retention = 0
	s := tripwire.New(tripwire.WithConfig(cfg))
	first := s.RunContext(context.Background())
	second := s.RunContext(context.Background())
	if first == nil || !errors.Is(second, first) && second.Error() != first.Error() {
		t.Fatalf("repeat RunContext returned %v, first returned %v", second, first)
	}
}

func TestStudyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := tripwire.New(tripwire.WithConfig(tripwire.SmallConfig()))
	if err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !s.Interrupted() {
		t.Fatal("Interrupted() false after cancellation")
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", s.Err())
	}
}

// TestEventsReplayAndOrdering subscribes only after the run has finished:
// the full sequence must replay, in virtual-time order, waves carrying
// batch names and detections carrying payloads.
func TestEventsReplayAndOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full small pilot in -short mode")
	}
	reg := tripwire.NewMetrics()
	s := tripwire.New(
		tripwire.WithConfig(tripwire.SmallConfig()),
		tripwire.WithMetrics(reg),
	).Run()
	if err := s.Err(); err != nil {
		t.Fatalf("run failed: %v", err)
	}

	var waves, detections int
	last := s.Pilot().Cfg.Start
	for ev := range s.Events() {
		if ev.At.Before(last) {
			t.Fatalf("event at %s arrived after one at %s: not virtual-time ordered", ev.At, last)
		}
		last = ev.At
		switch ev.Kind {
		case tripwire.EventWaveDone:
			waves++
			if ev.Batch == "" {
				t.Error("wave event without a batch name")
			}
			if ev.ToRank < ev.FromRank {
				t.Errorf("wave event with inverted ranks %d..%d", ev.FromRank, ev.ToRank)
			}
		case tripwire.EventDetection:
			detections++
			if ev.Detection == nil || ev.Detection.Domain == "" {
				t.Error("detection event without payload")
			}
		default:
			t.Errorf("unknown event kind %v", ev.Kind)
		}
	}
	if waves == 0 {
		t.Error("no wave events")
	}
	if got := len(s.Detections()); detections != got {
		t.Errorf("%d detection events, but study has %d detections", detections, got)
	}

	// The registry attached via WithMetrics observed the run.
	snap := reg.Snapshot()
	if snap.Counters["tripwire_crawler_attempts_total"] == 0 {
		t.Error("metrics registry saw no crawl attempts")
	}
	if snap.Counters["tripwire_sim_waves_total"] != float64(waves) {
		t.Errorf("tripwire_sim_waves_total = %v, want %d (one per wave event)",
			snap.Counters["tripwire_sim_waves_total"], waves)
	}
	if s.Metrics() != reg {
		t.Error("Metrics() does not return the attached registry")
	}
}
