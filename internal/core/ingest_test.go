package core

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
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

// TestIngestMatchesDecodedDump: a monitor fed the provider's dump views,
// whose resident logins carry account ids and whose cold-tier logins do
// not, ends exactly where a monitor fed the same dumps fully decoded
// (DumpOf) ends — the decoded monitor resolves every account afresh each
// dump, so any resolution the id cache reuses inexactly shows. The
// provider spills its log, so every dump reads the cold tier too. The
// logins reach control accounts, a never-registered account, an unused
// honeypot, hard and easy accounts, and a site whose detection starts in
// the middle of a dump. Between two dumps the honeypot is burned (its
// alarms must stop), and between two others an account already attributed
// to a site becomes a control (its logins must count as control logins
// from then on).
func TestIngestMatchesDecodedDump(t *testing.T) {
	w := newIngestWorld()
	w.p.SpillLoginLog(t.TempDir(), 24)
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

	views, decoded := NewMonitor(w.l, t0), NewMonitor(w.l, t0)
	for _, m := range []*Monitor{views, decoded} {
		m.ExpectControlLogin(control.Email)
	}
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
	var withID, withoutID int
	for r, round := range rounds {
		switch r {
		case 2:
			burnAt = w.now
			w.l.Burn(honeypot, "b.test", 2, "shop", w.now, crawler.CodeOKSubmission, false)
		case 3:
			promoteAt = w.now
			w.l.AddControl(easyA1)
			for _, m := range []*Monitor{views, decoded} {
				m.ExpectControlLogin(easyA1.Email)
			}
		}
		for i, id := range round {
			w.now = w.now.Add(time.Duration(1+i%3) * time.Hour)
			for k := 0; k < 1+i%4; k++ {
				w.login(t, id, methods[(r+i+k)%3], ips[(r*7+i+k)%len(ips)])
			}
		}
		w.now = w.now.Add(24 * time.Hour)
		dump := w.p.DumpSince(since)
		dump.Each(func(_ emailprovider.LoginEvent, id int) {
			if id < 0 {
				withoutID++
			} else {
				withID++
			}
		})
		gotNewly := views.Ingest(dump)
		wantNewly := decoded.Ingest(emailprovider.DumpOf(dump.Events()))
		if !slices.Equal(gotNewly, wantNewly) {
			t.Fatalf("dump %d: newly detected %v, decoded dump %v", r, gotNewly, wantNewly)
		}
		since = w.now
	}
	if w.p.SpilledSegments() == 0 || withID == 0 || withoutID == 0 {
		t.Fatalf("dumps never mixed tiers: %d spilled segments, %d logins with an id, %d without",
			w.p.SpilledSegments(), withID, withoutID)
	}

	dets, want := views.Detections(), decoded.Detections()
	if len(dets) != 3 || len(want) != 3 {
		t.Fatalf("%d and %d detections, want 3", len(dets), len(want))
	}
	for i, det := range dets {
		ref := want[i]
		if det.Domain != ref.Domain || det.Rank != ref.Rank || det.Category != ref.Category ||
			!reflect.DeepEqual(det.FirstSeen, ref.FirstSeen) || !reflect.DeepEqual(det.LastSeen, ref.LastSeen) ||
			det.HardAccessed != ref.HardAccessed ||
			det.AccountsRegistered != ref.AccountsRegistered || det.AccountsAccessed != ref.AccountsAccessed {
			t.Errorf("detection %d: %s %d %s %v..%v hard=%v %d of %d; decoded dumps gave %s %d %s %v..%v hard=%v %d of %d",
				i, det.Domain, det.Rank, det.Category, det.FirstSeen, det.LastSeen, det.HardAccessed, det.AccountsAccessed, det.AccountsRegistered,
				ref.Domain, ref.Rank, ref.Category, ref.FirstSeen, ref.LastSeen, ref.HardAccessed, ref.AccountsAccessed, ref.AccountsRegistered)
		}
		if !slices.Equal(det.Accounts(), ref.Accounts()) {
			t.Fatalf("%s accounts %v, decoded %v", det.Domain, det.Accounts(), ref.Accounts())
		}
		for _, acct := range det.Accounts() {
			if got, wantL := det.Logins(acct), ref.Logins(acct); !slices.Equal(got, wantL) {
				t.Errorf("%s logins of %s:\n got %v\nwant %v", det.Domain, acct, got, wantL)
			}
		}
	}
	if a, b := views.Alarms(), decoded.Alarms(); !reflect.DeepEqual(a, b) {
		t.Errorf("alarms %v, decoded %v", a, b)
	}
	if a, b := views.ControlLoginsSeen(), decoded.ControlLoginsSeen(); a != b {
		t.Errorf("ControlLoginsSeen %d, decoded %d", a, b)
	}
	if a, b := image(views.EncodeSection), image(decoded.EncodeSection); !bytes.Equal(a, b) {
		t.Errorf("section images differ: %d and %d bytes", len(a), len(b))
	}

	// The scenario reached every case it sets up.
	reasons := map[string]string{}
	for _, a := range views.Alarms() {
		reasons[a.Event.Account] = a.Reason
		if a.Event.Account == honeypot.Email && a.Event.Time.After(burnAt) {
			t.Errorf("honeypot alarm at %v, after it was burned at %v", a.Event.Time, burnAt)
		}
	}
	if reasons[stranger.Email] != "login to account never registered at any site" ||
		reasons[honeypot.Email] != "login to unused honeypot account (provider or Tripwire database compromise?)" {
		t.Errorf("alarm reasons %q, want one per kind", reasons)
	}
	if b, _ := views.Detection("b.test"); len(b.Logins(honeypot.Email)) == 0 {
		t.Error("the burned honeypot's later logins were not attributed")
	}
	if a, _ := views.Detection("a.test"); !a.HardAccessed {
		t.Error("a.test's hard account login did not mark it")
	}
	controlLogins := 0
	for _, ev := range w.p.AllLogins() {
		if ev.Account == control.Email || ev.Account == easyA1.Email && ev.Time.After(promoteAt) {
			controlLogins++
		}
	}
	if got := views.ControlLoginsSeen(); got != controlLogins {
		t.Errorf("ControlLoginsSeen %d, want %d with the promoted control's", got, controlLogins)
	}

	// Re-ingesting accounts the monitor has resolved allocates for the
	// accounts' growing login lists, not per login.
	w2 := newIngestWorld()
	m := NewMonitor(w2.l, t0)
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
	m.Ingest(dump)
	allocs := testing.AllocsPerRun(20, func() { m.Ingest(dump) })
	if allocs > accounts {
		t.Errorf("re-ingesting %d logins of %d known accounts made %.1f allocations, want at most one per account",
			dump.Len(), accounts, allocs)
	}
}

// TestIngestAcrossProviders: account ids number one provider's accounts,
// so a monitor fed dumps of two providers — here two that met the same
// accounts in opposite order, so each id names a different account in
// each — must attribute every login by its address, as a monitor fed the
// decoded dumps does.
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
	views, decoded := NewMonitor(a.l, t0), NewMonitor(a.l, t0)
	for _, w := range []*ingestWorld{a, b} {
		dump := w.p.DumpSince(t0)
		views.Ingest(dump)
		decoded.Ingest(emailprovider.DumpOf(dump.Events()))
	}
	if got, want := image(views.EncodeSection), image(decoded.EncodeSection); !bytes.Equal(got, want) {
		t.Fatalf("section images differ: %d and %d bytes", len(got), len(want))
	}
	for _, domain := range []string{"x.test", "y.test"} {
		if det, ok := views.Detection(domain); !ok || det.LoginCount() != 4 {
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
