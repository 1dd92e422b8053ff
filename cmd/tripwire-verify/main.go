// Command tripwire-verify runs the §4.4 integrity checklist on a pilot:
// the evidence chain behind "a successful login means the site was
// compromised" only holds if Tripwire's own infrastructure shows no signs
// of compromise. It verifies that every control login was reported by the
// provider, that no unused honeypot account ever tripped, that every
// detection maps to a site where Tripwire actually held an account, and
// that the anonymized dataset leaks nothing.
//
// Usage:
//
//	tripwire-verify [-scale small|paper] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"tripwire"
	"tripwire/internal/datarelease"
	"tripwire/internal/sim"
)

func main() {
	scale := flag.String("scale", "small", "study scale: small or paper")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	cfg, err := sim.ScaleConfig(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tripwire-verify: %v\n", err)
		os.Exit(2)
	}
	cfg.Seed = *seed
	study := tripwire.New(tripwire.WithConfig(cfg)).Run()
	p := study.Pilot()

	failures := 0
	check := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("  [%s] %-48s %s\n", status, name, detail)
	}

	fmt.Println("Tripwire integrity checklist (paper §4.4)")

	alarms := p.Monitor.Alarms()
	check("no unused honeypot account ever tripped", len(alarms) == 0,
		fmt.Sprintf("%d monitored unused accounts, %d alarms", p.Ledger.UnusedCount(), len(alarms)))

	check("control logins reported by provider", p.Monitor.ControlLoginsSeen() > 0,
		fmt.Sprintf("%d control logins observed", p.Monitor.ControlLoginsSeen()))

	breaches := p.Campaign.Breaches()
	truePositives := true
	for _, d := range p.Monitor.Detections() {
		if _, ok := breaches[d.Domain]; !ok {
			truePositives = false
		}
	}
	check("every detection maps to a real breach", truePositives,
		fmt.Sprintf("%d detections, %d scheduled breaches", len(p.Monitor.Detections()), len(breaches)))

	accounted := true
	for _, d := range p.Monitor.Detections() {
		if len(p.Ledger.SiteRegistrations(d.Domain)) == 0 {
			accounted = false
		}
	}
	check("every detection has a registered identity", accounted, "")

	records := datarelease.Build(p)
	auditErr := datarelease.Audit(records, p)
	detail := fmt.Sprintf("%d records", len(records))
	if auditErr != nil {
		detail = auditErr.Error()
	}
	check("anonymized dataset passes audit", auditErr == nil, detail)

	if failures > 0 {
		fmt.Printf("\n%d integrity checks FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall integrity checks passed")
}
