package core

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
	"tripwire/internal/snapshot"
)

// ingestWorld is a provider and a ledger over the same accounts, with a
// clock the test moves by hand.
type ingestWorld struct {
	p   *emailprovider.Provider
	l   *Ledger
	now time.Time
}

func newIngestWorld() *ingestWorld {
	w := &ingestWorld{p: emailprovider.New("bigmail.test"), l: NewLedger(), now: t0}
	w.p.Now = func() time.Time { return w.now }
	return w
}

// account creates id at the provider.
func (w *ingestWorld) account(t testing.TB, id *identity.Identity) *identity.Identity {
	t.Helper()
	if err := w.p.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
		t.Fatal(err)
	}
	return id
}

// login logs id in by method ("IMAP", "POP3" or "WEB") from ip.
func (w *ingestWorld) login(t testing.TB, id *identity.Identity, method string, ip netip.Addr) {
	t.Helper()
	var err error
	switch method {
	case "IMAP":
		_, err = w.p.Login(id.Email, id.Password, ip)
	case "POP3":
		err = w.p.POPLogin(id.Email, id.Password, ip)
	default:
		err = w.p.WebLogin(id.Email, id.Password, ip)
	}
	if err != nil {
		t.Fatalf("%s login to %s: %v", method, id.Email, err)
	}
}

// dumpOf logs each id in over IMAP from someIP, an hour apart, and returns
// the provider's dump of those logins.
func (w *ingestWorld) dumpOf(t testing.TB, ids ...*identity.Identity) emailprovider.Dump {
	t.Helper()
	since := w.now
	for _, id := range ids {
		w.now = w.now.Add(time.Hour)
		w.login(t, id, "IMAP", someIP)
	}
	return w.p.DumpSince(since)
}

// attribution is what Ingest must conclude from a run of dumps, worked out
// in the simplest way: each login looked up against the ledger as it
// stands when its dump is ingested, with nothing cached.
type attribution struct {
	newly       [][]string // per dump, the sites it detected first
	order       []string   // sites in first-detection order
	logins      map[string]map[string][]emailprovider.LoginEvent
	first, last map[string]time.Time
	hard        map[string]bool
	alarms      []IntegrityAlarm
	controls    int
}

func newAttribution() *attribution {
	return &attribution{
		logins: map[string]map[string][]emailprovider.LoginEvent{},
		first:  map[string]time.Time{}, last: map[string]time.Time{}, hard: map[string]bool{},
	}
}

func (a *attribution) ingest(l *Ledger, dump emailprovider.Dump) {
	var newly []string
	for _, ev := range dump.Events() {
		email := strings.ToLower(ev.Account)
		reg, registered := l.Lookup(email)
		switch {
		case l.IsControl(email):
			a.controls++
		case registered:
			site := reg.Domain
			if a.logins[site] == nil {
				a.logins[site] = map[string][]emailprovider.LoginEvent{}
				a.first[site], a.last[site] = ev.Time, ev.Time
				a.order = append(a.order, site)
				newly = append(newly, site)
			}
			if ev.Time.Before(a.first[site]) {
				a.first[site] = ev.Time
			}
			if ev.Time.After(a.last[site]) {
				a.last[site] = ev.Time
			}
			a.hard[site] = a.hard[site] || reg.Identity.Class == identity.Hard
			a.logins[site][email] = append(a.logins[site][email], ev)
		case l.IsUnused(email):
			a.alarms = append(a.alarms, IntegrityAlarm{Event: ev, Reason: "login to unused honeypot account (provider or Tripwire database compromise?)"})
		default:
			a.alarms = append(a.alarms, IntegrityAlarm{Event: ev, Reason: "login to account never registered at any site"})
		}
	}
	a.newly = append(a.newly, newly)
}

// check requires m to have concluded exactly what a did.
func (a *attribution) check(t *testing.T, m *Monitor, l *Ledger) {
	t.Helper()
	dets := m.Detections()
	if len(dets) != len(a.order) {
		t.Fatalf("%d detections, the ledger attributes logins to %d sites", len(dets), len(a.order))
	}
	for _, det := range dets {
		site := det.Domain
		regs := l.SiteRegistrations(site)
		if len(regs) == 0 || det.Rank != regs[0].Rank || det.Category != regs[0].Category ||
			!det.FirstSeen.Equal(a.first[site]) || !det.LastSeen.Equal(a.last[site]) || det.HardAccessed != a.hard[site] ||
			det.AccountsRegistered != len(regs) || det.AccountsAccessed != len(a.logins[site]) {
			t.Errorf("detection %s: rank %d %s, %v..%v hard=%v, %d of %d accessed; want %v..%v hard=%v, %d of %d",
				site, det.Rank, det.Category, det.FirstSeen, det.LastSeen, det.HardAccessed, det.AccountsAccessed, det.AccountsRegistered,
				a.first[site], a.last[site], a.hard[site], len(a.logins[site]), len(regs))
		}
		if want := snapshot.SortedKeys(a.logins[site]); !slices.Equal(det.Accounts(), want) {
			t.Fatalf("%s accounts %v, want %v", site, det.Accounts(), want)
		}
		for acct, want := range a.logins[site] {
			if got := det.Logins(acct); !slices.Equal(got, want) {
				t.Errorf("%s logins of %s:\n got %v\nwant %v", site, acct, got, want)
			}
		}
	}
	if got := m.Alarms(); !slices.Equal(got, a.alarms) {
		t.Errorf("alarms %v, want %v", got, a.alarms)
	}
	if got := m.ControlLoginsSeen(); got != a.controls {
		t.Errorf("ControlLoginsSeen %d, want %d", got, a.controls)
	}
}

// TestIngestMatchesLedgerAttribution: a monitor fed a provider's dumps
// ends exactly where attributing each login by a ledger lookup ends — the
// reference resolves every login afresh, so any resolution the monitor's
// id cache reuses inexactly shows. The provider spills its log, so every
// dump reads the cold tier too. The logins reach control accounts, a
// never-registered account, an unused honeypot, hard and easy accounts,
// and a site whose detection starts in the middle of a dump. Between two
// dumps the honeypot is burned (its alarms must stop), and between two
// others an account already attributed to a site becomes a control (its
// logins must count as control logins from then on).
func TestIngestMatchesLedgerAttribution(t *testing.T) {
	w := newIngestWorld()
	w.p.SpillLoginLog(t.TempDir(), 8)
	g := newGen()
	easyA1, easyA2, hardA := w.account(t, g.New(identity.Easy)), w.account(t, g.New(identity.Easy)), w.account(t, g.New(identity.Hard))
	easyB, hardC := w.account(t, g.New(identity.Easy)), w.account(t, g.New(identity.Hard))
	control := w.account(t, g.New(identity.Hard))
	stranger := w.account(t, g.New(identity.Easy)) // at the provider, unknown to the ledger
	honeypot := w.account(t, g.New(identity.Easy))
	for _, id := range []*identity.Identity{easyA1, easyA2, hardA, easyB, hardC, honeypot} {
		w.l.AddIdentity(id)
	}
	w.l.Burn(easyA1, "a.test", 1, "news", t0, crawler.CodeOKSubmission, false)
	w.l.Burn(easyA2, "a.test", 1, "news", t0, crawler.CodeOKSubmission, false)
	w.l.Burn(hardA, "a.test", 1, "news", t0, crawler.CodeOKSubmission, false)
	w.l.Burn(easyB, "b.test", 2, "shop", t0, crawler.CodeOKSubmission, false)
	w.l.Burn(hardC, "c.test", 3, "games", t0, crawler.CodeOKSubmission, false)
	w.l.AddControl(control)

	m, ref := NewMonitor(w.l, t0), newAttribution()
	m.ExpectControlLogin(control.Email)
	ips := []netip.Addr{
		netip.MustParseAddr("198.51.100.7"),
		netip.MustParseAddr("203.0.113.9"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:203.0.113.9"),
	}
	methods := []string{"IMAP", "POP3", "WEB"}
	// Each dump's logins, in order. A site's first login lands mid-dump,
	// and the honeypot and easyA1 log in last, within the resident tier,
	// in the dumps before and after each changes. The two changes fall in
	// different gaps, so the control set's growth does not hide a stale
	// alarm.
	rounds := [][]*identity.Identity{
		{control, easyA1, stranger, easyA2, easyA1, honeypot, easyA1},
		{control, easyA2, easyB, hardA, easyB, stranger, easyA1, honeypot},
		{control, easyB, hardC, stranger, hardA, hardC, easyA1, honeypot},
		{hardC, control, easyB, easyA2, hardA, easyA1, honeypot, easyA1},
		{easyB, stranger, control, hardC, easyA1, honeypot, easyA1},
	}
	since := t0
	var burnAt, promoteAt time.Time
	for r, round := range rounds {
		switch r {
		case 2:
			burnAt = w.now
			w.l.Burn(honeypot, "b.test", 2, "shop", w.now, crawler.CodeOKSubmission, false)
		case 3:
			promoteAt = w.now
			w.l.AddControl(easyA1)
			m.ExpectControlLogin(easyA1.Email)
		}
		for i, id := range round {
			w.now = w.now.Add(time.Duration(1+i%3) * time.Hour)
			for k := 0; k < 1+i%4; k++ {
				w.login(t, id, methods[(r+i+k)%3], ips[(r*7+i+k)%len(ips)])
			}
		}
		w.now = w.now.Add(24 * time.Hour)
		dump := w.p.DumpSince(since)
		if dump.Len() <= w.p.ResidentLogSize() {
			t.Fatalf("dump %d of %d logins read no cold record: %d are resident", r, dump.Len(), w.p.ResidentLogSize())
		}
		ref.ingest(w.l, dump)
		if got := m.Ingest(dump); !slices.Equal(got, ref.newly[r]) {
			t.Fatalf("dump %d: newly detected %v, the ledger gives %v", r, got, ref.newly[r])
		}
		since = w.now
	}
	ref.check(t, m, w.l)

	// The scenario reached every case it sets up.
	reasons := map[string]string{}
	for _, a := range m.Alarms() {
		reasons[a.Event.Account] = a.Reason
		if a.Event.Account == honeypot.Email && a.Event.Time.After(burnAt) {
			t.Errorf("honeypot alarm at %v, after it was burned at %v", a.Event.Time, burnAt)
		}
	}
	if len(reasons) != 2 {
		t.Errorf("alarms for %v, want the stranger and the honeypot", reasons)
	}
	if b, _ := m.Detection("b.test"); len(b.Logins(honeypot.Email)) == 0 {
		t.Error("the burned honeypot's later logins were not attributed")
	}
	if a, _ := m.Detection("a.test"); !a.HardAccessed {
		t.Error("a.test's hard account login did not mark it")
	}
	promoted := 0
	for _, ev := range w.p.AllLogins() {
		if ev.Account == easyA1.Email && ev.Time.After(promoteAt) {
			promoted++
		}
	}
	if a, _ := m.Detection("a.test"); promoted == 0 || len(a.Logins(easyA1.Email)) == 0 {
		t.Errorf("easyA1 logged in %d times after its promotion", promoted)
	}

	// Re-ingesting accounts the monitor has resolved allocates for the
	// accounts' growing login lists, not per login.
	w2 := newIngestWorld()
	m2 := NewMonitor(w2.l, t0)
	const accounts, perAccount = 8, 64
	var ids []*identity.Identity
	for i := 0; i < accounts; i++ {
		id := w2.account(t, g.New(identity.Easy))
		w2.l.Burn(id, fmt.Sprintf("s%d.test", i%3), i%3+1, "x", t0, crawler.CodeOKSubmission, false)
		ids = append(ids, id)
	}
	for k := 0; k < perAccount; k++ {
		w2.now = w2.now.Add(time.Minute)
		for _, id := range ids {
			w2.login(t, id, "IMAP", ips[0])
		}
	}
	dump := w2.p.DumpSince(t0)
	m2.Ingest(dump)
	allocs := testing.AllocsPerRun(20, func() { m2.Ingest(dump) })
	if allocs > accounts {
		t.Errorf("re-ingesting %d logins of %d known accounts made %.1f allocations, want at most one per account",
			dump.Len(), accounts, allocs)
	}
}

// TestIngestAcrossProviders: account ids number one provider's accounts,
// so a monitor fed dumps of two providers — here two that met the same
// accounts in opposite order, so each id names a different account in
// each — must attribute every login by its address, as the ledger does.
func TestIngestAcrossProviders(t *testing.T) {
	g := newGen()
	a, b := newIngestWorld(), newIngestWorld()
	b.l = a.l
	x, y := g.New(identity.Easy), g.New(identity.Hard)
	for _, w := range []*ingestWorld{a, b} {
		w.account(t, x)
		w.account(t, y)
	}
	a.l.Burn(x, "x.test", 1, "x", t0, crawler.CodeOKSubmission, false)
	a.l.Burn(y, "y.test", 2, "y", t0, crawler.CodeOKSubmission, false)
	ip := netip.MustParseAddr("198.51.100.7")
	for i, w := range []*ingestWorld{a, b, a, b} {
		w.now = t0.Add(time.Duration(i+1) * time.Hour)
		first, second := x, y
		if w == b {
			first, second = y, x
		}
		w.login(t, first, "IMAP", ip)
		w.login(t, second, "POP3", ip)
	}
	m, ref := NewMonitor(a.l, t0), newAttribution()
	for _, w := range []*ingestWorld{a, b} {
		dump := w.p.DumpSince(t0)
		ref.ingest(a.l, dump)
		m.Ingest(dump)
	}
	ref.check(t, m, a.l)
	for _, domain := range []string{"x.test", "y.test"} {
		if det, ok := m.Detection(domain); !ok || det.LoginCount() != 4 {
			t.Errorf("%s: detected %v, want 4 logins", domain, ok)
		}
	}
}

// BenchmarkMonitorIngest measures Monitor.Ingest on a stuffing-shaped
// study: 2,000 accounts at 20 sites, each logging in about 30 times over
// six dumps, so most logins are to accounts an earlier dump resolved. One
// iteration is a fresh monitor ingesting all six dump views.
func BenchmarkMonitorIngest(b *testing.B) {
	w := newIngestWorld()
	g := newGen()
	const accounts, sites, dumps, perDump = 2000, 20, 6, 5
	var ids []*identity.Identity
	for i := 0; i < accounts; i++ {
		class := identity.Easy
		if i%4 == 0 {
			class = identity.Hard
		}
		id := w.account(b, g.New(class))
		w.l.Burn(id, fmt.Sprintf("site%02d.test", i%sites), i%sites+1, "x", t0, crawler.CodeOKSubmission, false)
		ids = append(ids, id)
	}
	ips := []netip.Addr{netip.MustParseAddr("198.51.100.7"), netip.MustParseAddr("203.0.113.9")}
	var views []emailprovider.Dump
	since, events := t0, 0
	for d := 0; d < dumps; d++ {
		for k := 0; k < perDump; k++ {
			w.now = w.now.Add(time.Hour)
			for i, id := range ids {
				w.login(b, id, []string{"IMAP", "IMAP", "POP3"}[(i+k)%3], ips[(i+k)%2])
			}
		}
		w.now = w.now.Add(time.Hour)
		views = append(views, w.p.DumpSince(since))
		events += views[d].Len()
		since = w.now
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMonitor(w.l, t0)
		for _, v := range views {
			m.Ingest(v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
