package registry

import (
	"cmp"
	"fmt"
	"time"

	"tripwire"
	"tripwire/internal/sim"
)

// SubmitRequest is the POST /studies body: a named scale preset plus the
// runtime knobs a caller may turn. Everything else about a study is
// derived from the preset, keeping the control plane's input surface
// small and validatable.
type SubmitRequest struct {
	// Scale picks the configuration preset: "small" (SmallConfig), "paper"
	// (DefaultConfig, the full pilot), or "demo" (a seconds-long study with
	// several waves, breaches, and detections — the preset the service
	// tests and quickstart use). Empty means "small".
	Scale string `json:"scale"`
	// Seed overrides the preset's master seed.
	Seed *int64 `json:"seed,omitempty"`
	// Workers overrides the study's concurrency (crawl waves and timeline
	// epochs); zero keeps the preset's value, and more than maxWorkers is
	// refused. Results are bit-identical for a given seed regardless.
	Workers int `json:"workers,omitempty"`
	// Label is a free-form caller tag echoed in status output.
	Label string `json:"label,omitempty"`
}

// maxWorkers caps SubmitRequest.Workers. A study starts Workers-1 timeline
// helper goroutines, so the cap keeps one submission from asking for
// millions of them.
const maxWorkers = 256

// buildConfig resolves the request to a concrete study configuration.
func (r *SubmitRequest) buildConfig() (tripwire.Config, error) {
	if r.Workers > maxWorkers {
		return tripwire.Config{}, fmt.Errorf("workers = %d, at most %d", r.Workers, maxWorkers)
	}
	var cfg tripwire.Config
	if r.Scale == "demo" {
		cfg = DemoConfig()
	} else {
		var err error
		if cfg, err = sim.ScaleConfig(cmp.Or(r.Scale, "small")); err != nil {
			return cfg, fmt.Errorf(`%w; the service also offers "demo"`, err)
		}
	}
	if r.Seed != nil {
		cfg.Seed = *r.Seed
	}
	if r.Workers != 0 {
		cfg.Workers = r.Workers
	}
	return cfg, nil
}

// DemoConfig returns the service demo preset: a 260-site universe with two
// registration campaigns, a handful of breaches, and organic traffic —
// enough waves to pause between and enough attacker activity to produce
// detections, while finishing in seconds. The lifecycle tests and the CI
// serve smoke run on it.
func DemoConfig() tripwire.Config {
	cfg := tripwire.SmallConfig()
	cfg.Web.NumSites = 260
	day := func(y int, m time.Month, d int) time.Time {
		return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
	}
	cfg.Batches = []tripwire.Batch{
		{Name: "seed", Start: day(2014, 12, 10), Duration: 14 * 24 * time.Hour, FromRank: 1, ToRank: 130},
		{Name: "refresh", Start: day(2015, 11, 20), Duration: 21 * 24 * time.Hour, FromRank: 1, ToRank: 200},
	}
	cfg.NumUnused = 40
	cfg.NumControls = 2
	cfg.BreachRegistered = 4
	cfg.BreachUnregistered = 2
	cfg.OrganicUsersMin = 5
	cfg.OrganicUsersMax = 15
	return cfg
}
