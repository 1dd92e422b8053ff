package sim

import (
	"errors"
	"fmt"
)

// Validate checks cfg for configurations that would make a run panic,
// hang, or silently misbehave. Study.RunContext calls it before building a
// pilot; cmd/tripwire turns a failure into a non-zero exit.
func Validate(cfg Config) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if cfg.Web.NumSites < 1 {
		fail("web: NumSites = %d, need at least 1", cfg.Web.NumSites)
	}
	if !cfg.End.After(cfg.Start) {
		fail("window: End %s is not after Start %s", fmtDate(cfg.End), fmtDate(cfg.Start))
	}
	for i, b := range cfg.Batches {
		if b.FromRank < 1 {
			fail("batch %d (%s): FromRank = %d, ranks are 1-based", i, b.Name, b.FromRank)
		}
		if b.ToRank < b.FromRank {
			fail("batch %d (%s): ToRank %d < FromRank %d", i, b.Name, b.ToRank, b.FromRank)
		}
		if b.Duration <= 0 {
			fail("batch %d (%s): Duration must be positive", i, b.Name)
		}
	}
	if cfg.NumUnused < 0 {
		fail("NumUnused = %d, cannot be negative", cfg.NumUnused)
	}
	if cfg.NumControls < 0 {
		fail("NumControls = %d, cannot be negative", cfg.NumControls)
	}
	if cfg.NumControls > 0 && cfg.ControlLoginEvery <= 0 {
		// scheduleControls advances t by ControlLoginEvery; zero would spin
		// forever booking events at the same instant.
		fail("NumControls = %d but ControlLoginEvery = %v; control logins need a positive cadence", cfg.NumControls, cfg.ControlLoginEvery)
	}
	if cfg.BreachRegistered < 0 || cfg.BreachUnregistered < 0 {
		fail("breach counts cannot be negative (registered %d, unregistered %d)", cfg.BreachRegistered, cfg.BreachUnregistered)
	}
	if cfg.BreachRegistered+cfg.BreachUnregistered > 0 && !cfg.BreachWindowEnd.After(cfg.BreachWindowStart) {
		// scheduleBreaches draws Int63n over the window; an empty window
		// panics inside math/rand.
		fail("breach window: end %s is not after start %s", fmtDate(cfg.BreachWindowEnd), fmtDate(cfg.BreachWindowStart))
	}
	if cfg.OrganicUsersMin < 0 || cfg.OrganicUsersMax < cfg.OrganicUsersMin {
		fail("organic users: min %d, max %d (need 0 <= min <= max)", cfg.OrganicUsersMin, cfg.OrganicUsersMax)
	}
	if cfg.Retention <= 0 {
		fail("Retention = %v, must be positive", cfg.Retention)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"CaptchaImageErr", cfg.CaptchaImageErr},
		{"CaptchaKnowledgeErr", cfg.CaptchaKnowledgeErr},
		{"CrawlerFaultRate", cfg.CrawlerFaultRate},
	} {
		if r.v < 0 || r.v > 1 {
			fail("%s = %v, must be in [0, 1]", r.name, r.v)
		}
	}
	if cfg.Workers < 0 {
		fail("Workers = %d, cannot be negative", cfg.Workers)
	}
	if cfg.NetLatency < 0 {
		fail("NetLatency = %v, cannot be negative", cfg.NetLatency)
	}
	if cfg.CheckpointEvery < 0 {
		fail("CheckpointEvery = %d, cannot be negative", cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" {
		fail("CheckpointEvery = %d but CheckpointDir is empty; periodic checkpoints need a directory", cfg.CheckpointEvery)
	}
	if cfg.LogResidentBudget < 0 {
		fail("LogResidentBudget = %d, cannot be negative", cfg.LogResidentBudget)
	}
	if cfg.LogResidentBudget > 0 && cfg.LogSpillDir == "" {
		fail("LogResidentBudget = %d but LogSpillDir is empty; spilling needs a directory", cfg.LogResidentBudget)
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("sim: invalid config: %w", errors.Join(errs...))
}
