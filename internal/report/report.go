// Package report renders the paper's tables and figures from a completed
// pilot run: Table 1 (account creation estimates), Table 2 (compromised
// sites), Table 3 (per-account login activity), Table 4 (site eligibility),
// Figure 1 (crawler termination codes), Figure 2 (registration/login
// timeline), Figure 3 (registration funnel), and the §6.4 attacker-behaviour
// statistics.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tripwire/internal/core"
	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
	"tripwire/internal/sim"
)

// Table1Row aggregates one account-status bin.
type Table1Row struct {
	Status     core.AccountStatus
	AttHard    int
	AttEasy    int
	AttSites   int
	Success    float64 // measured validity rate
	ValidHard  int
	ValidEasy  int
	ValidSites int
}

// Table1 computes the account-creation estimates from the pilot's
// validations (Pilot.ValidateAll). Unlike the paper, which sampled 50
// accounts per bin and extrapolated, the simulation probes every account's
// login endpoint, so "valid" counts are exact.
func Table1(vals []sim.Validation) []Table1Row {
	statuses := []core.AccountStatus{
		core.StatusEmailVerified, core.StatusEmailReceived,
		core.StatusOKSubmission, core.StatusBadHeuristics, core.StatusManual,
	}
	rows := make(map[core.AccountStatus]*Table1Row, len(statuses))
	attSites := make(map[core.AccountStatus]map[string]bool)
	validSites := make(map[core.AccountStatus]map[string]bool)
	for _, s := range statuses {
		rows[s] = &Table1Row{Status: s}
		attSites[s] = make(map[string]bool)
		validSites[s] = make(map[string]bool)
	}
	for _, v := range vals {
		reg := v.Registration
		st := reg.Status
		row, ok := rows[st]
		if !ok {
			continue
		}
		if reg.Identity.Class == identity.Hard {
			row.AttHard++
		} else {
			row.AttEasy++
		}
		attSites[st][reg.Domain] = true
		if v.Valid {
			if reg.Identity.Class == identity.Hard {
				row.ValidHard++
			} else {
				row.ValidEasy++
			}
			validSites[st][reg.Domain] = true
		}
	}
	out := make([]Table1Row, 0, len(statuses))
	for _, s := range statuses {
		row := rows[s]
		row.AttSites = len(attSites[s])
		row.ValidSites = len(validSites[s])
		if att := row.AttHard + row.AttEasy; att > 0 {
			row.Success = float64(row.ValidHard+row.ValidEasy) / float64(att)
		}
		out = append(out, *row)
	}
	return out
}

// RenderTable1 formats Table1 like the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %8s %8s %8s %8s %9s %8s %8s %8s %8s\n",
		"Account Status", "Hard", "Easy", "Total", "Sites", "Success", "VHard", "VEasy", "VTotal", "VSites")
	totA, totH, totE, totVH, totVE := 0, 0, 0, 0, 0
	siteSum, vSiteSum := 0, 0
	for _, r := range rows {
		att := r.AttHard + r.AttEasy
		valid := r.ValidHard + r.ValidEasy
		fmt.Fprintf(&b, "%-30s %8d %8d %8d %8d %8.0f%% %8d %8d %8d %8d\n",
			r.Status, r.AttHard, r.AttEasy, att, r.AttSites, r.Success*100,
			r.ValidHard, r.ValidEasy, valid, r.ValidSites)
		totA += att
		totH += r.AttHard
		totE += r.AttEasy
		totVH += r.ValidHard
		totVE += r.ValidEasy
		siteSum += r.AttSites
		vSiteSum += r.ValidSites
	}
	fmt.Fprintf(&b, "%-30s %8d %8d %8d %8d %9s %8d %8d %8d %8d\n",
		"Total", totH, totE, totA, siteSum, "", totVH, totVE, totVH+totVE, vSiteSum)
	return b.String()
}

// Table2Row summarizes one detected compromise.
type Table2Row struct {
	Label        string // anonymized site letter, A..S style
	Accessed     int
	Registered   int
	HardAccessed string // "Y", "N", or "-" when no hard account existed
	Category     string
	RankRounded  int // rounded up to the nearest 500, as the paper reports
}

// Table2 summarizes detected compromises in first-login order.
func Table2(p *sim.Pilot) []Table2Row {
	dets := p.Monitor.Detections()
	rows := make([]Table2Row, 0, len(dets))
	for i, d := range dets {
		hard := "N"
		switch p.Monitor.Classify(d) {
		case core.BreachPlaintext:
			hard = "Y"
		case core.BreachIndeterminate:
			hard = "-"
		}
		rows = append(rows, Table2Row{
			Label:        siteLabel(i),
			Accessed:     d.AccountsAccessed,
			Registered:   d.AccountsRegistered,
			HardAccessed: hard,
			Category:     d.Category,
			RankRounded:  ((d.Rank + 499) / 500) * 500,
		})
	}
	return rows
}

// RenderTable2 formats Table 2.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-10s %-6s %-15s %-10s\n", "Site", "Accounts", "Hard", "Category", "Rank")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %d of %-6d %-6s %-15s %-10d\n",
			r.Label, r.Accessed, r.Registered, r.HardAccessed, r.Category, r.RankRounded)
	}
	return b.String()
}

// siteLabel produces A, B, ..., Z, AA, AB ... labels.
func siteLabel(i int) string {
	label := ""
	for {
		label = string(rune('A'+i%26)) + label
		i = i/26 - 1
		if i < 0 {
			return label
		}
	}
}

// Table3Row is one accessed account's login activity.
type Table3Row struct {
	Alias        string // e.g. a1: site letter + per-site index
	Type         identity.PasswordClass
	Logins       int
	UntilDays    int // registration -> first access
	SinceDays    int // last access -> end of study
	Frozen       bool
	AccessedDays int // first access -> last access
}

// Table3 lists per-account login activity for every tripped account.
func Table3(p *sim.Pilot) []Table3Row {
	var rows []Table3Row
	end := p.Cfg.End
	for i, d := range p.Monitor.Detections() {
		accounts := d.Accounts()
		logins := make(map[string][]emailprovider.LoginEvent, len(accounts))
		for _, email := range accounts {
			logins[email] = d.Logins(email)
		}
		// Order accounts by first access within the site.
		sort.Slice(accounts, func(a, b int) bool {
			return logins[accounts[a]][0].Time.Before(logins[accounts[b]][0].Time)
		})
		for j, email := range accounts {
			evs := logins[email]
			reg, ok := p.Ledger.Lookup(email)
			if !ok {
				continue
			}
			first, last := evs[0].Time, evs[0].Time
			for _, ev := range evs {
				if ev.Time.Before(first) {
					first = ev.Time
				}
				if ev.Time.After(last) {
					last = ev.Time
				}
			}
			rows = append(rows, Table3Row{
				Alias:        fmt.Sprintf("%s%d", strings.ToLower(siteLabel(i)), j+1),
				Type:         reg.Identity.Class,
				Logins:       len(evs),
				UntilDays:    days(reg.When, first),
				SinceDays:    days(last, end),
				Frozen:       p.Provider.FrozenOrDeactivated(email),
				AccessedDays: days(first, last),
			})
		}
	}
	return rows
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-5s %8s %7s %7s %7s %9s\n", "Acct", "Type", "#Logins", "Until", "Since", "Frozen", "DaysAcc")
	for _, r := range rows {
		frozen := "N"
		if r.Frozen {
			frozen = "Y"
		}
		fmt.Fprintf(&b, "%-6s %-5s %8d %7d %7d %7s %9d\n",
			r.Alias, r.Type, r.Logins, r.UntilDays, r.SinceDays, frozen, r.AccessedDays)
	}
	return b.String()
}

func days(a, b time.Time) int {
	d := int(b.Sub(a).Hours() / 24)
	if d < 0 {
		return 0
	}
	return d
}

// Fig1 counts crawler termination codes over all automated attempts.
func Fig1(p *sim.Pilot) map[crawler.Code]int {
	out := make(map[crawler.Code]int)
	for _, a := range p.Attempts {
		if !a.Manual {
			out[a.Code]++
		}
	}
	return out
}

// RenderFig1 formats the termination-code distribution.
func RenderFig1(counts map[crawler.Code]int) string {
	codes := []crawler.Code{
		crawler.CodeNoRegistration, crawler.CodeFieldsMissing,
		crawler.CodeSubmissionFailed, crawler.CodeOKSubmission,
		crawler.CodeSystemError,
	}
	total := 0
	for _, c := range codes {
		total += counts[c]
	}
	var b strings.Builder
	b.WriteString("Crawler termination codes (Figure 1 outcomes)\n")
	for _, c := range codes {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(counts[c]) / float64(total)
		}
		fmt.Fprintf(&b, "  %-30s %7d  %5.1f%%  %s\n", c, counts[c], pct, bar(pct))
	}
	fmt.Fprintf(&b, "  %-30s %7d\n", "Total attempts", total)
	return b.String()
}

func bar(pct float64) string {
	n := int(pct / 2)
	return strings.Repeat("#", n)
}
