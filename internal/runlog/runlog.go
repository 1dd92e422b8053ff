// Package runlog persists a completed pilot's results as a directory of
// analysis-ready artifacts: the rendered summary, the anonymized login
// dataset (§7.4), and JSON records of attempts, registrations, detections,
// and disclosures for external tooling.
package runlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tripwire/internal/datarelease"
	"tripwire/internal/disclosure"
	"tripwire/internal/report"
	"tripwire/internal/sim"
)

// AttemptRecord is the JSON shape of one crawl attempt.
type AttemptRecord struct {
	Domain  string    `json:"domain"`
	Rank    int       `json:"rank"`
	Class   string    `json:"password_class"`
	Code    string    `json:"termination_code"`
	Exposed bool      `json:"exposed"`
	Manual  bool      `json:"manual"`
	When    time.Time `json:"when"`
}

// RegistrationRecord is the JSON shape of one burned identity.
type RegistrationRecord struct {
	Domain   string    `json:"domain"`
	Rank     int       `json:"rank"`
	Category string    `json:"category"`
	Class    string    `json:"password_class"`
	Status   string    `json:"status"`
	Manual   bool      `json:"manual"`
	When     time.Time `json:"when"`
	Valid    bool      `json:"valid"`
}

// DetectionRecord is the JSON shape of one detected compromise.
type DetectionRecord struct {
	Domain             string    `json:"domain"`
	Rank               int       `json:"rank"`
	Category           string    `json:"category"`
	FirstSeen          time.Time `json:"first_seen"`
	LastSeen           time.Time `json:"last_seen"`
	AccountsRegistered int       `json:"accounts_registered"`
	AccountsAccessed   int       `json:"accounts_accessed"`
	HardAccessed       bool      `json:"hard_accessed"`
	BreachClass        string    `json:"breach_class"`
	TotalLogins        int       `json:"total_logins"`
}

// DisclosureRecord is the JSON shape of one notification outcome.
type DisclosureRecord struct {
	Domain         string        `json:"domain"`
	SentAt         time.Time     `json:"sent_at"`
	Outcome        string        `json:"outcome"`
	Reaction       string        `json:"reaction,omitempty"`
	RespondedAfter time.Duration `json:"responded_after_ns,omitempty"`
}

// Manifest describes the run.
type Manifest struct {
	Seed        int64     `json:"seed"`
	Sites       int       `json:"sites"`
	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	Attempts    int       `json:"attempts"`
	Burned      int       `json:"registrations"`
	Detections  int       `json:"detections"`
	Alarms      int       `json:"integrity_alarms"`
	GeneratedBy string    `json:"generated_by"`
}

// Write persists all artifacts of p into dir (created if needed) and
// returns the manifest. summary is the pre-rendered Study summary text.
func Write(dir string, p *sim.Pilot, summary string) (Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("runlog: %w", err)
	}

	man := Manifest{
		Seed:        p.Cfg.Seed,
		Sites:       p.Cfg.Web.NumSites,
		Start:       p.Cfg.Start,
		End:         p.Cfg.End,
		Attempts:    len(p.Attempts),
		Burned:      len(p.Ledger.Registrations()),
		Detections:  len(p.Monitor.Detections()),
		Alarms:      len(p.Monitor.Alarms()),
		GeneratedBy: "tripwire reproduction",
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"), man); err != nil {
		return man, err
	}
	if err := os.WriteFile(filepath.Join(dir, "summary.txt"), []byte(summary), 0o644); err != nil {
		return man, fmt.Errorf("runlog: %w", err)
	}

	// Anonymized dataset (§7.4) with its audit enforced at write time.
	records := datarelease.Build(p)
	if err := datarelease.Audit(records, p); err != nil {
		return man, err
	}
	f, err := os.Create(filepath.Join(dir, "logins.csv"))
	if err != nil {
		return man, fmt.Errorf("runlog: %w", err)
	}
	if err := datarelease.Write(f, records); err != nil {
		f.Close()
		return man, err
	}
	if err := f.Close(); err != nil {
		return man, fmt.Errorf("runlog: %w", err)
	}

	// Attempts.
	atts := make([]AttemptRecord, 0, len(p.Attempts))
	for _, a := range p.Attempts {
		atts = append(atts, AttemptRecord{
			Domain: a.Domain, Rank: a.Rank, Class: a.Class.String(),
			Code: a.Code.String(), Exposed: a.Exposed, Manual: a.Manual, When: a.When,
		})
	}
	if err := writeJSON(filepath.Join(dir, "attempts.json"), atts); err != nil {
		return man, err
	}

	// Registrations with ground-truth validity.
	valid := make(map[string]bool)
	for _, v := range p.ValidateAll() {
		valid[v.Registration.Identity.Email] = v.Valid
	}
	regs := make([]RegistrationRecord, 0)
	for _, r := range p.Ledger.Registrations() {
		regs = append(regs, RegistrationRecord{
			Domain: r.Domain, Rank: r.Rank, Category: r.Category,
			Class: r.Identity.Class.String(), Status: r.Status.String(),
			Manual: r.Manual, When: r.When, Valid: valid[r.Identity.Email],
		})
	}
	if err := writeJSON(filepath.Join(dir, "registrations.json"), regs); err != nil {
		return man, err
	}

	// Detections.
	dets := make([]DetectionRecord, 0)
	for _, d := range p.Monitor.Detections() {
		dets = append(dets, DetectionRecord{
			Domain: d.Domain, Rank: d.Rank, Category: d.Category,
			FirstSeen: d.FirstSeen, LastSeen: d.LastSeen,
			AccountsRegistered: d.AccountsRegistered, AccountsAccessed: d.AccountsAccessed,
			HardAccessed: d.HardAccessed, BreachClass: p.Monitor.Classify(d).String(),
			TotalLogins: d.LoginCount(),
		})
	}
	if err := writeJSON(filepath.Join(dir, "detections.json"), dets); err != nil {
		return man, err
	}

	// Disclosures.
	notes := make([]DisclosureRecord, 0)
	for _, n := range p.Disclosure.Notifications() {
		rec := DisclosureRecord{Domain: n.Domain, SentAt: n.SentAt, Outcome: n.Outcome.String()}
		if n.Outcome == disclosure.OutcomeResponded {
			rec.Reaction = n.Reaction.String()
			rec.RespondedAfter = n.RespondedAfter
		}
		notes = append(notes, rec)
	}
	if err := writeJSON(filepath.Join(dir, "disclosures.json"), notes); err != nil {
		return man, err
	}

	// Attacker statistics as JSON for external plotting.
	if err := writeJSON(filepath.Join(dir, "attacker_stats.json"), report.Sec64(p)); err != nil {
		return man, err
	}
	return man, nil
}

// ReadManifest loads the manifest of a results directory.
func ReadManifest(dir string) (Manifest, error) {
	var man Manifest
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return man, fmt.Errorf("runlog: %w", err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("runlog: parsing manifest: %w", err)
	}
	return man, nil
}

// ReadDetections loads detections.json from a results directory.
func ReadDetections(dir string) ([]DetectionRecord, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "detections.json"))
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	var out []DetectionRecord
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("runlog: parsing detections: %w", err)
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("runlog: encoding %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	return nil
}
