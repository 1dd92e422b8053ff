package sim

import (
	"strings"
	"testing"
	"time"
)

func TestValidateAcceptsShippedConfigs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"small":   SmallConfig(),
	} {
		if err := Validate(cfg); err != nil {
			t.Errorf("%s config rejected: %v", name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error
	}{
		{"no sites", func(c *Config) { c.Web.NumSites = 0 }, "NumSites"},
		{"inverted window", func(c *Config) { c.End = c.Start }, "not after Start"},
		{"zero-based rank", func(c *Config) { c.Batches[0].FromRank = 0 }, "1-based"},
		{"inverted batch ranks", func(c *Config) { c.Batches[1].ToRank = c.Batches[1].FromRank - 1 }, "ToRank"},
		{"zero batch duration", func(c *Config) { c.Batches[0].Duration = 0 }, "Duration"},
		{"negative unused", func(c *Config) { c.NumUnused = -1 }, "NumUnused"},
		{"controls without cadence", func(c *Config) { c.ControlLoginEvery = 0 }, "cadence"},
		{"negative breaches", func(c *Config) { c.BreachRegistered = -3 }, "breach counts"},
		{"empty breach window", func(c *Config) { c.BreachWindowEnd = c.BreachWindowStart }, "breach window"},
		{"inverted organic bounds", func(c *Config) { c.OrganicUsersMax = c.OrganicUsersMin - 1 }, "organic users"},
		{"zero retention", func(c *Config) { c.Retention = 0 }, "Retention"},
		{"captcha rate above one", func(c *Config) { c.CaptchaImageErr = 1.5 }, "CaptchaImageErr"},
		{"negative fault rate", func(c *Config) { c.CrawlerFaultRate = -0.1 }, "CrawlerFaultRate"},
		{"negative workers", func(c *Config) { c.Workers = -2 }, "Workers"},
		{"negative latency", func(c *Config) { c.NetLatency = -time.Second }, "NetLatency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SmallConfig()
			tc.mutate(&cfg)
			err := Validate(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateJoinsAllErrors(t *testing.T) {
	cfg := SmallConfig()
	cfg.Web.NumSites = 0
	cfg.Retention = 0
	err := Validate(cfg)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	for _, want := range []string{"NumSites", "Retention"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
}
