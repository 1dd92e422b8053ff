package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/sim"
	"tripwire/internal/webgen"
)

// Table4Row is one 100-site eligibility census window.
type Table4Row struct {
	StartRank      int
	LoadFailure    float64
	NotEnglish     float64
	NoRegistration float64
	Ineligible     float64 // payment, SSO-only, email caps
	Rest           float64
}

// EligibilityRanks picks the Table 4 sample windows available in the
// configured universe (the paper used ranks 1, 1,000, 10,000 and 100,000).
func EligibilityRanks(p *sim.Pilot) []int {
	var out []int
	for _, r := range []int{1, 1000, 10000, 100000} {
		if r+99 <= p.Cfg.Web.NumSites {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// Table4 censuses 100-site windows starting at the given ranks,
// classifying each site into the paper's mutually exclusive buckets.
func Table4(p *sim.Pilot, startRanks []int) []Table4Row {
	var rows []Table4Row
	for _, start := range startRanks {
		row := Table4Row{StartRank: start}
		n := 0
		for rank := start; rank < start+100; rank++ {
			site, ok := p.Universe.SiteByRank(rank)
			if !ok {
				break
			}
			n++
			switch {
			case site.LoadFailure:
				row.LoadFailure++
			case site.Language != webgen.LangEnglish:
				row.NotEnglish++
			case !site.HasRegistration:
				row.NoRegistration++
			case site.ExternalAuthOnly || site.RequiresPayment || site.MaxEmailLen > 0:
				row.Ineligible++
			default:
				row.Rest++
			}
		}
		if n == 0 {
			continue
		}
		f := 100 / float64(n)
		row.LoadFailure *= f
		row.NotEnglish *= f
		row.NoRegistration *= f
		row.Ineligible *= f
		row.Rest *= f
		rows = append(rows, row)
	}
	return rows
}

// RenderTable4 formats the eligibility census.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %12s %15s %12s %8s\n",
		"StartRank", "LoadFail", "NotEnglish", "NoRegistration", "Ineligible", "Rest")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %9.0f%% %11.0f%% %14.0f%% %11.0f%% %7.0f%%\n",
			r.StartRank, r.LoadFailure, r.NotEnglish, r.NoRegistration, r.Ineligible, r.Rest)
	}
	return b.String()
}

// Funnel is Figure 3: the registration funnel from all sites submitted to
// estimated valid accounts.
type Funnel struct {
	TotalSites    int
	EligibleSites int // ground truth
	// Crawler outcomes among ground-truth eligible sites (fractions).
	NoRegFound     float64 // form/link misidentification + multistage
	SystemErrors   float64
	FailedFills    float64 // unavailable info, failed captchas, bad fields
	EstimatedOK    float64 // crawler believed success
	SuccessOnElig  float64 // actually-valid site fraction among eligible
	IneligibleFrac float64 // of all sites
}

// Fig3 computes the funnel from the pilot and its validations
// (Pilot.ValidateAll). Outcomes are taken per site from the first automated
// attempt, mirroring how the paper accounts one crawl per site.
func Fig3(p *sim.Pilot, vals []sim.Validation) Funnel {
	f := Funnel{}
	bestBySite := make(map[string]crawler.Code)
	for _, a := range p.Attempts {
		if a.Manual {
			continue
		}
		if _, seen := bestBySite[a.Domain]; !seen {
			bestBySite[a.Domain] = a.Code
		}
	}
	f.TotalSites = len(bestBySite)
	if f.TotalSites == 0 {
		return f
	}
	var elig, inelig int
	var noReg, sysErr, failedFill, okSub int
	for domain, code := range bestBySite {
		site, ok := p.Universe.Site(domain)
		if !ok {
			continue
		}
		if !site.Eligible() {
			inelig++
			continue
		}
		elig++
		switch code {
		case crawler.CodeNoRegistration:
			noReg++
		case crawler.CodeSystemError:
			sysErr++
		case crawler.CodeFieldsMissing, crawler.CodeSubmissionFailed:
			failedFill++
		case crawler.CodeOKSubmission:
			okSub++
		}
	}
	f.EligibleSites = elig
	f.IneligibleFrac = float64(inelig) / float64(f.TotalSites)
	if elig > 0 {
		f.NoRegFound = float64(noReg) / float64(elig)
		f.SystemErrors = float64(sysErr) / float64(elig)
		f.FailedFills = float64(failedFill) / float64(elig)
		f.EstimatedOK = float64(okSub) / float64(elig)
	}
	// True success: eligible sites where at least one automated account is
	// actually valid.
	validSites := make(map[string]bool)
	for _, v := range vals {
		if v.Valid && !v.Registration.Manual {
			validSites[v.Registration.Domain] = true
		}
	}
	okElig := 0
	for domain := range validSites {
		if site, ok := p.Universe.Site(domain); ok && site.Eligible() {
			okElig++
		}
	}
	if elig > 0 {
		f.SuccessOnElig = float64(okElig) / float64(elig)
	}
	return f
}

func codeRank(c crawler.Code) int {
	switch c {
	case crawler.CodeOKSubmission:
		return 4
	case crawler.CodeSubmissionFailed:
		return 3
	case crawler.CodeFieldsMissing:
		return 2
	case crawler.CodeNoRegistration:
		return 1
	default:
		return 0
	}
}

// RenderFig3 formats the funnel.
func RenderFig3(f Funnel) string {
	var b strings.Builder
	b.WriteString("Registration funnel (Figure 3)\n")
	fmt.Fprintf(&b, "  All sites submitted:          %d\n", f.TotalSites)
	fmt.Fprintf(&b, "  Ineligible (ground truth):    %.1f%%\n", f.IneligibleFrac*100)
	fmt.Fprintf(&b, "  Eligible:                     %.1f%% (%d sites)\n", (1-f.IneligibleFrac)*100, f.EligibleSites)
	b.WriteString("  Of eligible sites, crawler outcome:\n")
	fmt.Fprintf(&b, "    No registration found:      %.1f%%\n", f.NoRegFound*100)
	fmt.Fprintf(&b, "    System errors:              %.1f%%\n", f.SystemErrors*100)
	fmt.Fprintf(&b, "    Fill/submission failures:   %.1f%%\n", f.FailedFills*100)
	fmt.Fprintf(&b, "    System-estimated success:   %.1f%%\n", f.EstimatedOK*100)
	fmt.Fprintf(&b, "  Actual success on eligible:   %.1f%%\n", f.SuccessOnElig*100)
	return b.String()
}

// Fig2 renders the registration/login timeline per compromised site as an
// ASCII approximation of the paper's Figure 2: one row per site, columns
// are months, 'R' marks registrations, '*' marks login activity, and the
// right margin shows total logins.
func Fig2(p *sim.Pilot) string {
	dets := p.Monitor.Detections()
	if len(dets) == 0 {
		return "no compromises detected\n"
	}
	start := monthFloor(p.Cfg.Start)
	end := monthFloor(p.Cfg.End).AddDate(0, 1, 0)
	months := monthsBetween(start, end)

	var b strings.Builder
	b.WriteString("Login activity timeline (Figure 2); columns are months ")
	fmt.Fprintf(&b, "%s .. %s\n", start.Format("2006-01"), end.AddDate(0, -1, 0).Format("2006-01"))
	if gaps := lossWindows(p); len(gaps) > 0 {
		row := make([]byte, months)
		for j := range row {
			row[j] = ' '
		}
		for _, g := range gaps {
			for t := monthFloor(g[0]); t.Before(g[1]); t = t.AddDate(0, 1, 0) {
				if idx := monthIndex(start, t); idx >= 0 && idx < months {
					row[idx] = 'G'
				}
			}
		}
		fmt.Fprintf(&b, "gap %s (login data irrecoverably lost to provider retention)\n", string(row))
	}
	for i, d := range dets {
		row := make([]byte, months)
		for j := range row {
			row[j] = '.'
		}
		for _, reg := range p.Ledger.SiteRegistrations(d.Domain) {
			if idx := monthIndex(start, reg.When); idx >= 0 && idx < months {
				row[idx] = 'R'
			}
		}
		total := 0
		for _, evs := range d.Logins {
			for _, ev := range evs {
				total++
				if idx := monthIndex(start, ev.Time); idx >= 0 && idx < months {
					if row[idx] == 'R' {
						row[idx] = 'B' // both in the same month
					} else {
						row[idx] = '*'
					}
				}
			}
		}
		fmt.Fprintf(&b, "%-3s %s (%d)\n", siteLabel(i), string(row), total)
	}
	b.WriteString("R=registration  *=account logins  B=both  (.)=quiet\n")
	return b.String()
}

// lossWindows computes the periods whose login events could never be
// observed: between consecutive provider dumps, anything older than the
// retention limit at the next dump is purged before Tripwire sees it. The
// paper's Spring-2015 gap (March 20 – June 1, 2015) arose exactly this way.
func lossWindows(p *sim.Pilot) [][2]time.Time {
	var out [][2]time.Time
	dumps := p.Cfg.DumpDates
	for i := 1; i < len(dumps); i++ {
		lostUntil := dumps[i].Add(-p.Cfg.Retention)
		if lostUntil.After(dumps[i-1]) {
			out = append(out, [2]time.Time{dumps[i-1], lostUntil})
		}
	}
	return out
}

func monthFloor(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
}

func monthsBetween(a, b time.Time) int {
	return (b.Year()-a.Year())*12 + int(b.Month()) - int(a.Month())
}

func monthIndex(start time.Time, t time.Time) int {
	return monthsBetween(start, monthFloor(t))
}

// AttackerStats aggregates §6.4's attacker-behaviour measurements.
type AttackerStats struct {
	TotalLogins     int
	DistinctIPs     int
	ReusedIPs       int // IPs appearing more than once
	MaxIPUses       int
	Countries       int
	TopCountries    []CountryCount
	ResidentialPct  float64
	IMAPPct         float64
	BurstyAccounts  int // accounts with >=5 logins inside any 10-minute window
	AccountsTripped int
}

// CountryCount pairs a country code with its distinct-IP count.
type CountryCount struct {
	Code string
	IPs  int
}

// Sec64 computes attacker-behaviour statistics from attributed logins.
func Sec64(p *sim.Pilot) AttackerStats {
	st := AttackerStats{}
	ipUses := make(map[string]int)
	ipCountry := make(map[string]string)
	ipResidential := make(map[string]bool)
	perAccount := make(map[string][]time.Time)
	imap := 0
	for _, det := range p.Monitor.Detections() {
		for _, evs := range det.Logins {
			for _, ev := range evs {
				st.TotalLogins++
				key := ev.IP.String()
				ipUses[key]++
				if _, seen := ipCountry[key]; !seen {
					if c, ok := p.Space.Lookup(ev.IP); ok {
						ipCountry[key] = c.Code
					}
					ipResidential[key] = !p.Space.IsDatacenter(ev.IP)
				}
				if ev.Method == "IMAP" {
					imap++
				}
				perAccount[ev.Account] = append(perAccount[ev.Account], ev.Time)
			}
		}
	}
	st.DistinctIPs = len(ipUses)
	st.AccountsTripped = len(perAccount)
	countries := make(map[string]int)
	residential := 0
	for ip, uses := range ipUses {
		if uses > 1 {
			st.ReusedIPs++
		}
		if uses > st.MaxIPUses {
			st.MaxIPUses = uses
		}
		countries[ipCountry[ip]]++
		if ipResidential[ip] {
			residential++
		}
	}
	st.Countries = len(countries)
	for code, n := range countries {
		st.TopCountries = append(st.TopCountries, CountryCount{code, n})
	}
	sort.Slice(st.TopCountries, func(i, j int) bool {
		if st.TopCountries[i].IPs != st.TopCountries[j].IPs {
			return st.TopCountries[i].IPs > st.TopCountries[j].IPs
		}
		return st.TopCountries[i].Code < st.TopCountries[j].Code
	})
	if len(st.TopCountries) > 6 {
		st.TopCountries = st.TopCountries[:6]
	}
	if st.DistinctIPs > 0 {
		st.ResidentialPct = 100 * float64(residential) / float64(st.DistinctIPs)
	}
	if st.TotalLogins > 0 {
		st.IMAPPct = 100 * float64(imap) / float64(st.TotalLogins)
	}
	for _, times := range perAccount {
		sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
		for i := range times {
			j := i
			for j+1 < len(times) && times[j+1].Sub(times[i]) <= 10*time.Minute {
				j++
			}
			if j-i+1 >= 5 {
				st.BurstyAccounts++
				break
			}
		}
	}
	return st
}

// RenderSec64 formats the attacker-behaviour statistics.
func RenderSec64(st AttackerStats) string {
	var b strings.Builder
	b.WriteString("Attacker behaviour (paper §6.4)\n")
	fmt.Fprintf(&b, "  Accounts tripped:        %d\n", st.AccountsTripped)
	fmt.Fprintf(&b, "  Total logins:            %d\n", st.TotalLogins)
	fmt.Fprintf(&b, "  Distinct IPs:            %d (%d reused, max %d uses)\n", st.DistinctIPs, st.ReusedIPs, st.MaxIPUses)
	fmt.Fprintf(&b, "  Countries:               %d\n", st.Countries)
	b.WriteString("  Top countries by IPs:    ")
	for i, cc := range st.TopCountries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(%d)", cc.Code, cc.IPs)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  Residential IPs:         %.0f%%\n", st.ResidentialPct)
	fmt.Fprintf(&b, "  IMAP share of logins:    %.0f%%\n", st.IMAPPct)
	fmt.Fprintf(&b, "  Bursty accounts:         %d\n", st.BurstyAccounts)
	return b.String()
}
