package report

import (
	"strings"
	"sync"
	"testing"

	"tripwire/internal/core"
	"tripwire/internal/crawler"
	"tripwire/internal/sim"
)

var (
	pilotOnce sync.Once
	pilotInst *sim.Pilot
)

func pilot(t *testing.T) *sim.Pilot {
	t.Helper()
	pilotOnce.Do(func() {
		pilotInst = sim.NewPilot(sim.SmallConfig()).Run()
	})
	return pilotInst
}

func TestTable1ShapesAndRendering(t *testing.T) {
	p := pilot(t)
	rows := Table1(p.ValidateAll())
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 status bins", len(rows))
	}
	byStatus := map[core.AccountStatus]Table1Row{}
	for _, r := range rows {
		byStatus[r.Status] = r
		if r.ValidHard > r.AttHard || r.ValidEasy > r.AttEasy || r.ValidSites > r.AttSites {
			t.Fatalf("valid exceeds attempted in %v: %+v", r.Status, r)
		}
		if r.Success < 0 || r.Success > 1 {
			t.Fatalf("success rate %v out of [0,1]", r.Success)
		}
	}
	// The paper's ordering of bins by confidence.
	if !(byStatus[core.StatusEmailVerified].Success >= byStatus[core.StatusOKSubmission].Success) {
		t.Error("email-verified accounts should validate at least as often as OK submissions")
	}
	if !(byStatus[core.StatusOKSubmission].Success > byStatus[core.StatusBadHeuristics].Success) {
		t.Error("OK submissions should validate more often than bad-heuristics")
	}
	out := RenderTable1(rows)
	for _, label := range []string{"Email verified", "OK submission", "Manual", "Total"} {
		if !strings.Contains(out, label) {
			t.Errorf("rendered table missing %q:\n%s", label, out)
		}
	}
}

func TestTable2AgainstGroundTruth(t *testing.T) {
	p := pilot(t)
	rows := Table2(p)
	dets := p.Monitor.Detections()
	if len(rows) != len(dets) {
		t.Fatalf("rows = %d, detections = %d", len(rows), len(dets))
	}
	for i, r := range rows {
		d := dets[i]
		site, _ := p.Universe.Site(d.Domain)
		if r.HardAccessed == "Y" && !site.Storage.HardRecoverable() {
			t.Errorf("site %s: hard access reported under %v storage", d.Domain, site.Storage)
		}
		if r.Accessed > r.Registered {
			t.Errorf("row %s: accessed %d > registered %d", r.Label, r.Accessed, r.Registered)
		}
		if r.RankRounded < d.Rank {
			t.Errorf("row %s: rank rounded down (%d < %d)", r.Label, r.RankRounded, d.Rank)
		}
	}
	if out := RenderTable2(rows); !strings.Contains(out, "A") {
		t.Error("rendered table 2 lacks site labels")
	}
}

func TestSiteLabelSequence(t *testing.T) {
	want := map[int]string{0: "A", 1: "B", 25: "Z", 26: "AA", 27: "AB", 52: "BA"}
	for i, w := range want {
		if got := siteLabel(i); got != w {
			t.Errorf("siteLabel(%d) = %q, want %q", i, got, w)
		}
	}
}

func TestTable3Consistency(t *testing.T) {
	p := pilot(t)
	rows := Table3(p)
	if len(rows) == 0 {
		t.Fatal("no accessed accounts")
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Alias] {
			t.Errorf("duplicate alias %s", r.Alias)
		}
		seen[r.Alias] = true
		if r.Logins <= 0 {
			t.Errorf("%s: %d logins", r.Alias, r.Logins)
		}
		if r.Logins == 1 && r.AccessedDays != 0 {
			t.Errorf("%s: single login spans %d days", r.Alias, r.AccessedDays)
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "a1") {
		t.Errorf("rendered table 3 lacks a1:\n%s", out)
	}
}

func TestTable4SumsTo100(t *testing.T) {
	p := pilot(t)
	rows := Table4(p, []int{1, 1000})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := r.LoadFailure + r.NotEnglish + r.NoRegistration + r.Ineligible + r.Rest
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("row %d sums to %.1f", r.StartRank, sum)
		}
	}
	// Out-of-range window yields no row.
	if rows := Table4(p, []int{10 * 1000 * 1000}); len(rows) != 0 {
		t.Errorf("out-of-range census produced rows: %+v", rows)
	}
}

func TestFig1CountsMatchAttempts(t *testing.T) {
	p := pilot(t)
	counts := Fig1(p)
	total := 0
	for _, n := range counts {
		total += n
	}
	auto := 0
	for _, a := range p.Attempts {
		if !a.Manual {
			auto++
		}
	}
	if total != auto {
		t.Fatalf("Fig1 total %d != automated attempts %d", total, auto)
	}
	if out := RenderFig1(counts); !strings.Contains(out, "OK submission") {
		t.Error("rendered fig1 incomplete")
	}
}

func TestFig2RowsMatchDetections(t *testing.T) {
	p := pilot(t)
	out := Fig2(p)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + optional gap row + one line per detection + legend.
	want := len(p.Monitor.Detections()) + 2
	gap := 0
	if strings.HasPrefix(lines[1], "gap") {
		gap = 1
	}
	if len(lines) != want+gap {
		t.Fatalf("fig2 has %d lines, want %d:\n%s", len(lines), want+gap, out)
	}
	if gap == 1 && !strings.Contains(lines[1], "G") {
		t.Errorf("gap row has no G markers: %q", lines[1])
	}
	for _, l := range lines[1+gap : len(lines)-1] {
		if !strings.Contains(l, "R") {
			t.Errorf("timeline row lacks registration mark: %q", l)
		}
		if !strings.Contains(l, "(") {
			t.Errorf("timeline row lacks login count: %q", l)
		}
	}
}

func TestFig3Bounds(t *testing.T) {
	p := pilot(t)
	f := Fig3(p, p.ValidateAll())
	if f.TotalSites == 0 || f.EligibleSites == 0 {
		t.Fatalf("funnel empty: %+v", f)
	}
	sum := f.NoRegFound + f.SystemErrors + f.FailedFills + f.EstimatedOK
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("eligible-site outcomes sum to %.2f", sum)
	}
	if f.SuccessOnElig > f.EstimatedOK+0.25 {
		t.Fatalf("actual success %.2f wildly above estimated %.2f", f.SuccessOnElig, f.EstimatedOK)
	}
	if out := RenderFig3(f); !strings.Contains(out, "funnel") {
		t.Error("rendered fig3 incomplete")
	}
}

func TestSec64Stats(t *testing.T) {
	p := pilot(t)
	st := Sec64(p)
	attributed := 0
	for _, det := range p.Monitor.Detections() {
		attributed += det.LoginCount()
	}
	if st.TotalLogins != attributed {
		t.Fatalf("TotalLogins %d != attributed %d", st.TotalLogins, attributed)
	}
	if st.DistinctIPs > st.TotalLogins {
		t.Fatal("more IPs than logins")
	}
	if st.Countries > 92 {
		t.Fatalf("countries %d exceeds the space", st.Countries)
	}
	if st.MaxIPUses > 100 {
		t.Fatalf("max IP uses %d implausible (paper max: 58)", st.MaxIPUses)
	}
	if out := RenderSec64(st); !strings.Contains(out, "Distinct IPs") {
		t.Error("rendered sec64 incomplete")
	}
}

func TestCodeRankCoversAllCodes(t *testing.T) {
	codes := []crawler.Code{
		crawler.CodeOKSubmission, crawler.CodeSubmissionFailed,
		crawler.CodeFieldsMissing, crawler.CodeNoRegistration,
		crawler.CodeSystemError,
	}
	seen := map[int]bool{}
	for _, c := range codes {
		r := codeRank(c)
		if seen[r] {
			t.Fatalf("codeRank collision at %d", r)
		}
		seen[r] = true
	}
}
