package datarelease

import (
	"strings"
	"sync"
	"testing"
	"time"

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

func TestBuildCoversEveryAttributedLogin(t *testing.T) {
	p := pilot(t)
	records := Build(p)
	if want := attributedLogins(p); len(records) != want {
		t.Fatalf("%d records for %d attributed logins", len(records), want)
	}
	if err := Audit(records, p); err != nil {
		t.Fatal(err)
	}
}

func TestAnonymizationLeaksNothing(t *testing.T) {
	p := pilot(t)
	var b strings.Builder
	if err := Write(&b, Build(p)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// No honey email address may appear.
	for _, reg := range p.Ledger.Registrations() {
		if strings.Contains(out, reg.Identity.Email) {
			t.Fatalf("dataset leaks account %s", reg.Identity.Email)
		}
		if strings.Contains(out, reg.Identity.Password) {
			t.Fatalf("dataset leaks a password")
		}
	}
	// No full IP may appear: every ip column must end .0/24.
	for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if i == 0 {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			t.Fatalf("row %d malformed: %q", i, line)
		}
		if !strings.HasSuffix(fields[2], ".0/24") {
			t.Fatalf("row %d IP not anonymized: %q", i, fields[2])
		}
		if strings.Contains(fields[1], ":") {
			t.Fatalf("row %d timestamp finer than a day: %q", i, fields[1])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	p := pilot(t)
	records := Build(p)
	var b strings.Builder
	if err := Write(&b, records); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("round trip %d -> %d records", len(records), len(got))
	}
	for i := range got {
		if got[i] != records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], records[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Read(strings.NewReader("x,y\n1,2\n")); err == nil {
		t.Error("wrong header accepted")
	}
	if _, err := Read(strings.NewReader("alias,day,ip24,method\na1,not-a-date,1.2.3.0/24,IMAP\n")); err == nil {
		t.Error("bad date accepted")
	}
}

func TestAliasesStableAndGrouped(t *testing.T) {
	p := pilot(t)
	records := Build(p)
	if len(records) == 0 {
		t.Skip("no detections in pilot")
	}
	// Aliases must look like <letters><index> and be sorted.
	prev := ""
	for _, r := range records {
		if r.Alias <= "" || r.Alias[0] < 'a' || r.Alias[0] > 'z' {
			t.Fatalf("alias %q malformed", r.Alias)
		}
		if r.Alias < prev {
			t.Fatalf("records unsorted: %q after %q", r.Alias, prev)
		}
		prev = r.Alias
	}
	// Deterministic rebuild.
	again := Build(p)
	for i := range again {
		if again[i] != records[i] {
			t.Fatalf("Build not deterministic at %d", i)
		}
	}
}

func TestDayTruncation(t *testing.T) {
	p := pilot(t)
	for _, r := range Build(p) {
		if !r.Day.Equal(r.Day.Truncate(24 * time.Hour)) {
			t.Fatalf("day %v not truncated", r.Day)
		}
	}
}
