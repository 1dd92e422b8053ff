package core

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
)

var (
	t0     = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	someIP = netip.MustParseAddr("198.51.100.7")
)

func newGen() *identity.Generator { return identity.NewGenerator("bigmail.test", 77) }

func TestPoolTakeReturn(t *testing.T) {
	l := NewLedger()
	g := newGen()
	l.SetDeriver(g.At)
	hard := g.New(identity.Hard)
	easy := g.New(identity.Easy)
	l.AddIdentity(hard)
	l.AddIdentity(easy)
	if l.PoolSize() != 2 || l.UnusedCount() != 2 {
		t.Fatalf("pool=%d unused=%d", l.PoolSize(), l.UnusedCount())
	}
	got := l.Take(identity.Easy)
	if !reflect.DeepEqual(got, easy) {
		t.Fatalf("Take(Easy) = %v", got)
	}
	if l.Take(identity.Easy) != nil {
		t.Fatal("Take from empty class should return nil")
	}
	l.Return(got)
	if back := l.Take(identity.Easy); !reflect.DeepEqual(back, easy) {
		t.Fatalf("returned identity came back as %v, want %v", back, easy)
	}
}

// TestReturnKeepsRanks: the pool keeps a returned identity as its index.
// Returns come back value-equal in FIFO order; an index that directly
// follows the pool's last span extends it, and a gap starts a new span,
// as does an index that follows a span Take has already used up.
// Returning needs the deriver, and returning a burned identity panics.
func TestReturnKeepsRanks(t *testing.T) {
	g := newGen()
	l := NewLedger()
	l.SetDeriver(g.At)
	from := g.Reserve(identity.Hard, 8)
	l.ExtendPool(identity.Hard, from, 8)
	var taken []*identity.Identity
	for i := 0; i < 8; i++ {
		taken = append(taken, l.Take(identity.Hard))
	}
	if l.PoolSize() != 0 {
		t.Fatalf("pool holds %d after taking all 8", l.PoolSize())
	}

	order := []int{0, 1, 2, 5, 6, 3}
	for _, i := range order {
		l.Return(taken[i])
	}
	want := []poolSegment{{from: from, to: from + 3}, {from: from + 5, to: from + 7}, {from: from + 3, to: from + 4}}
	if p := &l.pools[identity.Hard]; !reflect.DeepEqual(p.segs[p.head:], want) {
		t.Fatalf("pool segments = %+v, want %+v", p.segs[p.head:], want)
	}
	for _, i := range order {
		if got := l.Take(identity.Hard); !reflect.DeepEqual(got, taken[i]) {
			t.Fatalf("took %v, want the returned identity %v", got, taken[i])
		}
	}
	l.Return(taken[4]) // follows the used-up span [from+3, from+4)
	if got := l.Take(identity.Hard); !reflect.DeepEqual(got, taken[4]) {
		t.Fatalf("return after a used-up span: took %v, want %v", got, taken[4])
	}
	if got := l.Take(identity.Hard); got != nil {
		t.Fatalf("pool should be dry, took %v", got)
	}

	l.Burn(taken[7], "site1.test", 1, "News", t0, crawler.CodeOKSubmission, false)
	for label, ret := range map[string]func(){
		"a burned identity": func() { l.Return(taken[7]) },
		"without a deriver": func() { NewLedger().Return(taken[6]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("returning %s did not panic", label)
				}
			}()
			ret()
		}()
	}
}

func TestBurnSemantics(t *testing.T) {
	l := NewLedger()
	id := newGen().New(identity.Hard)
	l.AddIdentity(id)
	taken := l.Take(identity.Hard)
	reg := l.Burn(taken, "site1.test", 10, "Gaming", t0, crawler.CodeOKSubmission, false)
	if reg.Status != StatusOKSubmission {
		t.Fatalf("initial status = %v", reg.Status)
	}
	if l.UnusedCount() != 0 {
		t.Fatal("burned identity still counted unused")
	}
	// Idempotent re-burn to the same site.
	if l.Burn(taken, "site1.test", 10, "Gaming", t0, crawler.CodeOKSubmission, false) != reg {
		t.Fatal("re-burn to same site should return existing registration")
	}
	// Burn to a different site panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("burn to second site did not panic")
			}
		}()
		l.Burn(taken, "site2.test", 20, "News", t0, crawler.CodeOKSubmission, false)
	}()
	// Returning a burned identity panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("returning burned identity did not panic")
			}
		}()
		l.Return(taken)
	}()
}

func TestInitialStatusMapping(t *testing.T) {
	l := NewLedger()
	g := newGen()
	cases := []struct {
		code   crawler.Code
		manual bool
		want   AccountStatus
	}{
		{crawler.CodeOKSubmission, false, StatusOKSubmission},
		{crawler.CodeSubmissionFailed, false, StatusBadHeuristics},
		{crawler.CodeFieldsMissing, false, StatusBadHeuristics},
		{crawler.CodeOKSubmission, true, StatusManual},
	}
	for i, tc := range cases {
		id := g.New(identity.Hard)
		l.AddIdentity(id)
		reg := l.Burn(id, "s.test"+string(rune('a'+i)), 1, "X", t0, tc.code, tc.manual)
		if reg.Status != tc.want {
			t.Errorf("case %d: status = %v, want %v", i, reg.Status, tc.want)
		}
	}
}

func TestNoteEmailUpgrades(t *testing.T) {
	l := NewLedger()
	id := newGen().New(identity.Hard)
	l.AddIdentity(id)
	reg := l.Burn(id, "s.test", 1, "X", t0, crawler.CodeOKSubmission, false)

	if l.NoteEmail("unknown@bigmail.test", true) != nil {
		t.Fatal("NoteEmail for unknown recipient should return nil")
	}
	l.NoteEmail(id.Email, false)
	if reg.Status != StatusEmailReceived {
		t.Fatalf("after non-verification mail: %v", reg.Status)
	}
	l.NoteEmail(id.Email, true)
	if reg.Status != StatusEmailVerified {
		t.Fatalf("after verification mail: %v", reg.Status)
	}
	// Downgrades never happen.
	l.NoteEmail(id.Email, false)
	if reg.Status != StatusEmailVerified {
		t.Fatalf("status downgraded to %v", reg.Status)
	}
}

func TestMonitorDetection(t *testing.T) {
	w := newIngestWorld()
	l, g := w.l, newGen()
	hard := w.account(t, g.New(identity.Hard))
	easy := w.account(t, g.New(identity.Easy))
	l.AddIdentity(hard)
	l.AddIdentity(easy)
	l.Burn(hard, "victim.test", 42, "Gaming", t0, crawler.CodeOKSubmission, false)
	l.Burn(easy, "victim.test", 42, "Gaming", t0, crawler.CodeOKSubmission, false)

	m := NewMonitor(l, t0)
	newly := m.Ingest(w.dumpOf(t, easy))
	if len(newly) != 1 || newly[0] != "victim.test" {
		t.Fatalf("newly = %v", newly)
	}
	det, ok := m.Detection("victim.test")
	if !ok {
		t.Fatal("detection missing")
	}
	if det.HardAccessed {
		t.Fatal("easy-only access flagged hard")
	}
	if m.Classify(det) != BreachHashedOnly {
		t.Fatalf("classify = %v", m.Classify(det))
	}
	if det.AccountsRegistered != 2 || det.AccountsAccessed != 1 {
		t.Fatalf("counters: %d of %d", det.AccountsAccessed, det.AccountsRegistered)
	}

	// Hard account access upgrades the classification.
	newly = m.Ingest(w.dumpOf(t, hard))
	if len(newly) != 0 {
		t.Fatalf("same site re-reported as new: %v", newly)
	}
	det, _ = m.Detection("victim.test")
	if m.Classify(det) != BreachPlaintext {
		t.Fatalf("classify after hard access = %v", m.Classify(det))
	}
	if det.AccountsAccessed != 2 {
		t.Fatalf("accessed = %d", det.AccountsAccessed)
	}
}

func TestMonitorIndeterminateClass(t *testing.T) {
	w := newIngestWorld()
	easy := w.account(t, newGen().New(identity.Easy))
	w.l.AddIdentity(easy)
	w.l.Burn(easy, "p.test", 400, "Adult", t0, crawler.CodeOKSubmission, false)
	m := NewMonitor(w.l, t0)
	m.Ingest(w.dumpOf(t, easy))
	det, _ := m.Detection("p.test")
	if m.Classify(det) != BreachIndeterminate {
		t.Fatalf("classify = %v (no hard account registered: site P case)", m.Classify(det))
	}
}

func TestMonitorIntegrityAlarms(t *testing.T) {
	w := newIngestWorld()
	unused := w.account(t, newGen().New(identity.Hard))
	w.l.AddIdentity(unused) // provisioned but never burned
	m := NewMonitor(w.l, t0)
	m.Ingest(w.dumpOf(t, unused))
	alarms := m.Alarms()
	if len(alarms) != 1 {
		t.Fatalf("alarms = %v", alarms)
	}
	if msg := alarms[0].Error(); msg == "" {
		t.Fatal("alarm renders empty")
	}
	if len(m.Detections()) != 0 {
		t.Fatal("alarm produced a detection")
	}
}

func TestMonitorControlLogins(t *testing.T) {
	w := newIngestWorld()
	ctrl := w.account(t, newGen().New(identity.Hard))
	w.l.AddControl(ctrl)
	m := NewMonitor(w.l, t0)
	m.ExpectControlLogin(ctrl.Email)
	m.Ingest(w.dumpOf(t, ctrl))
	if len(m.Alarms()) != 0 {
		t.Fatal("control login raised an alarm")
	}
	if m.ControlLoginsSeen() != 1 {
		t.Fatalf("ControlLoginsSeen = %d", m.ControlLoginsSeen())
	}
}

func TestDetectionsOrderedByFirstSeen(t *testing.T) {
	w := newIngestWorld()
	g := newGen()
	var ids []*identity.Identity
	for i := 0; i < 3; i++ {
		id := w.account(t, g.New(identity.Easy))
		w.l.AddIdentity(id)
		w.l.Burn(id, "s"+string(rune('a'+i))+".test", i+1, "X", t0, crawler.CodeOKSubmission, false)
		ids = append(ids, id)
	}
	m := NewMonitor(w.l, t0)
	// Site c logs in first, but its dump is ingested last.
	early := w.dumpOf(t, ids[2])
	late := w.dumpOf(t, ids[1], ids[0])
	m.Ingest(late)
	m.Ingest(early)
	dets := m.Detections()
	if len(dets) != 3 {
		t.Fatalf("detections = %d", len(dets))
	}
	if !(dets[0].Domain == "sc.test" && dets[1].Domain == "sb.test" && dets[2].Domain == "sa.test") {
		t.Fatalf("order = %s, %s, %s", dets[0].Domain, dets[1].Domain, dets[2].Domain)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[AccountStatus]string{
		StatusEmailVerified: "Email verified",
		StatusEmailReceived: "Email received",
		StatusOKSubmission:  "OK submission",
		StatusBadHeuristics: "Bad heuristics/Fields missing",
		StatusManual:        "Manual",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", int(st), st.String())
		}
	}
}

// TestDetectionLoginsMatchIngested: a detection keeps each attributed
// login as a packed record, and Logins must give back exactly the logins
// ingested — every address form and access method, in ingest order — on
// the detection and on a clone that later ingests leave unchanged.
func TestDetectionLoginsMatchIngested(t *testing.T) {
	w := newIngestWorld()
	g := newGen()
	a, b := w.account(t, g.New(identity.Easy)), w.account(t, g.New(identity.Hard))
	for _, id := range []*identity.Identity{a, b} {
		w.l.AddIdentity(id)
		w.l.Burn(id, "v.test", 1, "X", t0, crawler.CodeOKSubmission, false)
	}
	at := func(h int) time.Time { return t0.Add(time.Duration(h) * time.Hour) }
	type login struct {
		id     *identity.Identity
		h      int
		ip     netip.Addr
		method string
	}
	ingest := func(m *Monitor, logins ...login) {
		since := w.now
		for _, l := range logins {
			w.now = at(l.h)
			w.login(t, l.id, l.method, l.ip)
		}
		m.Ingest(w.p.DumpSince(since))
	}
	want := map[string][]emailprovider.LoginEvent{
		a.Email: {
			{Account: a.Email, Time: at(1), IP: netip.MustParseAddr("203.0.113.9"), Method: "IMAP"},
			{Account: a.Email, Time: at(2), IP: netip.MustParseAddr("::ffff:203.0.113.9"), Method: "POP3"},
			{Account: a.Email, Time: at(4), IP: netip.MustParseAddr("fe80::1%eth0"), Method: "WEB"},
		},
		b.Email: {
			{Account: b.Email, Time: at(3), IP: netip.MustParseAddr("2001:db8::1"), Method: "WEB"},
			{Account: b.Email, Time: at(4), IP: netip.Addr{}, Method: "IMAP"},
			{Account: b.Email, Time: at(5), IP: netip.MustParseAddr("2001:db8::1"), Method: "POP3"},
		},
	}
	m := NewMonitor(w.l, t0)
	as, bs := want[a.Email], want[b.Email]
	ingest(m, login{a, 1, as[0].IP, "IMAP"}, login{a, 2, as[1].IP, "POP3"}, login{b, 3, bs[0].IP, "WEB"})
	ingest(m, login{b, 4, bs[1].IP, "IMAP"}, login{a, 4, as[2].IP, "WEB"}, login{b, 5, bs[2].IP, "POP3"})
	det, _ := m.Detection("v.test")
	clone := det.Clone()
	ingest(m, login{a, 6, netip.MustParseAddr("2001:db8::9"), "IMAP"})
	for name, d := range map[string]*Detection{"detection": det, "clone": clone} {
		if got := d.Accounts(); !slices.Equal(got, []string{a.Email, b.Email}) && !slices.Equal(got, []string{b.Email, a.Email}) {
			t.Fatalf("%s accounts %v", name, got)
		}
		for account, evs := range want {
			got := d.Logins(account)
			if name == "detection" && account == a.Email {
				got = got[:len(got)-1] // the login ingested after the clone
			}
			if !slices.Equal(got, evs) {
				t.Errorf("%s logins of %s:\n got %v\nwant %v", name, account, got, evs)
			}
		}
	}
	if det.LoginCount() != 7 || clone.LoginCount() != 6 {
		t.Fatalf("login counts %d and %d, want 7 and 6", det.LoginCount(), clone.LoginCount())
	}
}
