package emailprovider

import (
	"net/netip"
	"testing"
	"time"

	"tripwire/internal/imap"
	"tripwire/internal/simclock"
)

var testIP = netip.MustParseAddr("203.0.113.9")

func newTestProvider() (*Provider, *simclock.Clock) {
	clock := simclock.New(time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC))
	p := New("bigmail.test")
	p.Now = clock.Now
	return p, clock
}

func TestCreateAccountPolicies(t *testing.T) {
	p, _ := newTestProvider()
	if err := p.CreateAccount("arguablegem8317@bigmail.test", "Jane Doe", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateAccount("arguablegem8317@bigmail.test", "Other", "pw"); err != ErrCollision {
		t.Fatalf("duplicate: err = %v", err)
	}
	if err := p.CreateAccount("admin@bigmail.test", "X", "pw"); err != ErrNamingPolicy {
		t.Fatalf("reserved: err = %v", err)
	}
	if err := p.CreateAccount("ab@bigmail.test", "X", "pw"); err != ErrNamingPolicy {
		t.Fatalf("too short: err = %v", err)
	}
	if err := p.CreateAccount("bad name@bigmail.test", "X", "pw"); err != ErrNamingPolicy {
		t.Fatalf("bad chars: err = %v", err)
	}
	if err := p.CreateAccount("x@otherdomain.test", "X", "pw"); err == nil {
		t.Fatal("foreign domain accepted")
	}
	if !p.Exists("ArguableGem8317@bigmail.test") {
		t.Fatal("Exists should be case-insensitive")
	}
	if p.NumAccounts() != 1 {
		t.Fatalf("NumAccounts = %d", p.NumAccounts())
	}
}

func TestLoginLogsSuccessOnly(t *testing.T) {
	p, clock := newTestProvider()
	p.CreateAccount("user1@bigmail.test", "U", "Secret99x")
	if _, err := p.Login("user1@bigmail.test", "wrong", testIP); err != imap.ErrAuthFailed {
		t.Fatalf("wrong password: %v", err)
	}
	if n := len(p.AllLogins()); n != 0 {
		t.Fatalf("failed attempt logged: %d events (paper: failures are not disclosed)", n)
	}
	sess, err := p.Login("user1@bigmail.test", "Secret99x", testIP)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Logout()
	evs := p.AllLogins()
	if len(evs) != 1 {
		t.Fatalf("%d events", len(evs))
	}
	ev := evs[0]
	if ev.Account != "user1@bigmail.test" || ev.IP != testIP || ev.Method != "IMAP" || !ev.Time.Equal(clock.Now()) {
		t.Fatalf("event = %+v", ev)
	}
}

func TestLoginMethods(t *testing.T) {
	p, _ := newTestProvider()
	p.CreateAccount("meth0@bigmail.test", "M", "pw123456")
	if err := p.WebLogin("meth0@bigmail.test", "pw123456", testIP); err != nil {
		t.Fatal(err)
	}
	if err := p.POPLogin("meth0@bigmail.test", "pw123456", testIP); err != nil {
		t.Fatal(err)
	}
	methods := map[string]bool{}
	for _, ev := range p.AllLogins() {
		methods[ev.Method] = true
	}
	if !methods["WEB"] || !methods["POP3"] {
		t.Fatalf("methods = %v", methods)
	}
}

func TestBruteForceDefence(t *testing.T) {
	p, clock := newTestProvider()
	p.CreateAccount("bfuser@bigmail.test", "B", "RealPass1")
	for i := 0; i <= p.BruteForceMax; i++ {
		p.Login("bfuser@bigmail.test", "guess", testIP)
	}
	// Even the CORRECT password is now throttled.
	if _, err := p.Login("bfuser@bigmail.test", "RealPass1", testIP); err != imap.ErrThrottled {
		t.Fatalf("after brute force: %v", err)
	}
	clock.Advance(p.ThrottlePeriod + time.Hour)
	if _, err := p.Login("bfuser@bigmail.test", "RealPass1", testIP); err != nil {
		t.Fatalf("after throttle expiry: %v", err)
	}
}

func TestMailDeliveryAndForwarding(t *testing.T) {
	p, _ := newTestProvider()
	p.CreateAccount("fwd01@bigmail.test", "F", "pw123456")
	var forwarded []string
	p.Forward = func(from, to, subject, body string) error {
		forwarded = append(forwarded, to+"|"+subject)
		return nil
	}
	p.SetForwarding("fwd01@bigmail.test", "fwd01@relay.test")
	if err := p.Send("noreply@site.test", "fwd01@bigmail.test", "Verify", "click"); err != nil {
		t.Fatal(err)
	}
	if len(forwarded) != 1 || forwarded[0] != "fwd01@relay.test|Verify" {
		t.Fatalf("forwarded = %v", forwarded)
	}
	inbox := p.Inbox("fwd01@bigmail.test")
	if len(inbox) != 1 || inbox[0].Subject != "Verify" {
		t.Fatalf("inbox = %+v", inbox)
	}
	if tgt, ok := p.ForwardingOf("fwd01@bigmail.test"); !ok || tgt != "fwd01@relay.test" {
		t.Fatalf("ForwardingOf = %q, %v", tgt, ok)
	}
}

func TestIMAPSessionReadsInbox(t *testing.T) {
	p, _ := newTestProvider()
	p.CreateAccount("reader@bigmail.test", "R", "pw123456")
	p.Send("a@site.test", "reader@bigmail.test", "One", "b1")
	p.Send("a@site.test", "reader@bigmail.test", "Two", "b2")
	sess, err := p.Login("reader@bigmail.test", "pw123456", testIP)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sess.Select("INBOX")
	if err != nil || n != 2 {
		t.Fatalf("Select = %d, %v", n, err)
	}
	m, err := sess.Fetch(2)
	if err != nil || m.Subject != "Two" {
		t.Fatalf("Fetch(2) = %+v, %v", m, err)
	}
	if _, err := sess.Fetch(3); err == nil {
		t.Fatal("Fetch past end allowed")
	}
	if _, err := sess.Select("Drafts"); err == nil {
		t.Fatal("non-INBOX mailbox allowed")
	}
}

func TestAbuseLifecycle(t *testing.T) {
	p, _ := newTestProvider()
	p.CreateAccount("ab1@bigmail.test", "A", "pw123456")
	if st := p.ReportSpam("ab1@bigmail.test", 500); st != Deactivated {
		t.Fatalf("after spam: %v", st)
	}
	if _, err := p.Login("ab1@bigmail.test", "pw123456", testIP); err != imap.ErrAccountFrozen {
		t.Fatalf("deactivated login: %v", err)
	}
	if !p.FrozenOrDeactivated("ab1@bigmail.test") {
		t.Fatal("FrozenOrDeactivated = false")
	}

	p.CreateAccount("ab2@bigmail.test", "A", "pw123456")
	p.Freeze("ab2@bigmail.test")
	if _, err := p.Login("ab2@bigmail.test", "pw123456", testIP); err != imap.ErrAccountFrozen {
		t.Fatalf("frozen login: %v", err)
	}

	p.CreateAccount("ab3@bigmail.test", "A", "OldPass99")
	p.ForceReset("ab3@bigmail.test")
	if _, err := p.Login("ab3@bigmail.test", "OldPass99", testIP); err != imap.ErrAuthFailed {
		t.Fatalf("reset-forced login: %v", err)
	}
}

func TestAttackerTakeover(t *testing.T) {
	p, _ := newTestProvider()
	p.CreateAccount("taken@bigmail.test", "T", "Original1")
	p.SetForwarding("taken@bigmail.test", "taken@relay.test")
	if !p.ChangePassword("taken@bigmail.test", "Hijacked9") {
		t.Fatal("ChangePassword failed")
	}
	if !p.RemoveForwarding("taken@bigmail.test") {
		t.Fatal("RemoveForwarding failed")
	}
	if _, err := p.Login("taken@bigmail.test", "Original1", testIP); err == nil {
		t.Fatal("old password still works")
	}
	if _, err := p.Login("taken@bigmail.test", "Hijacked9", testIP); err != nil {
		t.Fatalf("new password rejected: %v", err)
	}
	if _, ok := p.ForwardingOf("taken@bigmail.test"); ok {
		t.Fatal("forwarding still set")
	}
}

func TestDumpSinceAndRetention(t *testing.T) {
	p, clock := newTestProvider()
	p.Retention = 75 * 24 * time.Hour
	p.CreateAccount("dumper@bigmail.test", "D", "pw123456")

	login := func() {
		if _, err := p.Login("dumper@bigmail.test", "pw123456", testIP); err != nil {
			t.Fatal(err)
		}
	}
	login() // Jan 1
	clock.Advance(60 * 24 * time.Hour)
	login() // Mar 2
	clock.Advance(60 * 24 * time.Hour)
	login() // May 1

	// Now is ~May 1; retention cutoff is ~Feb 15. The Jan 1 event is
	// beyond retention and invisible even to a since-the-beginning dump —
	// the paper's Spring 2015 gap mechanism.
	evs := p.DumpSince(time.Date(2014, 12, 1, 0, 0, 0, 0, time.UTC))
	if evs.Len() != 2 {
		t.Fatalf("dump saw %d events, want 2 (one lost to retention)", evs.Len())
	}
	// A dump since Mar 15 sees only the May event.
	evs = p.DumpSince(time.Date(2015, 3, 15, 0, 0, 0, 0, time.UTC))
	if evs.Len() != 1 {
		t.Fatalf("dump since mid-March saw %d events", evs.Len())
	}
	if purged := p.PurgeExpired(); purged != 1 {
		t.Fatalf("PurgeExpired = %d, want 1", purged)
	}
	if len(p.AllLogins()) != 2 {
		t.Fatalf("after purge: %d events", len(p.AllLogins()))
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Active: "active", Frozen: "frozen", Deactivated: "deactivated", ResetForced: "reset-forced"} {
		if st.String() != want {
			t.Errorf("State(%d) = %q", int(st), st.String())
		}
	}
}
