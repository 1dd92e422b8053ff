package emailprovider

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tripwire/internal/chunklog"
	"tripwire/internal/snapshot"
)

// recordCases cover every form a login record must reproduce: an IPv4
// address held inline, the addresses its side table holds (IPv4-in-IPv6,
// IPv6 with and without a zone, the zero address), the zero time, and
// each access method.
var recordCases = []struct {
	local  string
	nanos  int64
	zero   bool
	ip     []byte
	zone   string
	method uint8
}{
	{"v4", 1433160000000000007, false, []byte{203, 0, 113, 9}, "", methodIMAP},
	{"v4in6", 1433160000000000000, false, netip.MustParseAddr("::ffff:203.0.113.9").AsSlice(), "", methodPOP3},
	{"v6", -1, false, netip.MustParseAddr("2001:db8::1").AsSlice(), "", methodWeb},
	{"v6.zoned", 0, false, netip.MustParseAddr("fe80::1").AsSlice(), "eth0", methodIMAP},
	{"zero.ip", 1433160000000000000, false, nil, "", methodPOP3},
	{"zero.time", 0, true, []byte{10, 0, 0, 1}, "", methodWeb},
	{"zero.both", 0, true, nil, "", methodIMAP},
}

// checkLoginRecord logs one login and requires the log's view of it to
// equal the login, and to encode to the same bytes.
func checkLoginRecord(t *testing.T, local string, at time.Time, ip netip.Addr, method uint8) {
	t.Helper()
	r := loginLog{at: "@honey.test"}
	want := LoginEvent{Account: local + "@honey.test", Time: at, IP: ip, Method: methodNames[method]}
	r.append(local, at, ip, method)
	got := resident(&r)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("view %+v, want %+v", got, want)
	}
	eg, ew := snapshot.NewEncoder(), snapshot.NewEncoder()
	appendLoginEvent(eg, &got[0])
	appendLoginEvent(ew, &want)
	if !bytes.Equal(eg.Bytes(), ew.Bytes()) {
		t.Fatalf("view encodes %x, the login %x", eg.Bytes(), ew.Bytes())
	}
}

func recordInput(nanos int64, zero bool, ip []byte, zone string) (time.Time, netip.Addr) {
	at := time.Unix(0, nanos).UTC()
	if zero {
		at = time.Time{}
	}
	addr, _ := netip.AddrFromSlice(ip) // the zero Addr for any other length
	if addr.Is6() {
		addr = addr.WithZone(zone)
	}
	return at, addr
}

func TestLoginRecordViews(t *testing.T) {
	for _, c := range recordCases {
		t.Run(c.local, func(t *testing.T) {
			at, ip := recordInput(c.nanos, c.zero, c.ip, c.zone)
			checkLoginRecord(t, c.local, at, ip, c.method)
		})
	}
}

func FuzzLoginRecord(f *testing.F) {
	for _, c := range recordCases {
		f.Add(c.local, c.nanos, c.zero, c.ip, c.zone, c.method)
	}
	f.Fuzz(func(t *testing.T, local string, nanos int64, zero bool, ip []byte, zone string, method uint8) {
		at, addr := recordInput(nanos, zero, ip, zone)
		checkLoginRecord(t, local, at, addr, method%uint8(len(methodNames)))
	})
}

// TestSealIgnoresInternOrder: ids follow first-login order, which a
// parallel segment hands out in goroutine order. Two providers that meet
// the same accounts in opposite orders, then log one segment of logins
// from concurrent goroutines, must seal to the same log and encode the
// same section.
func TestSealIgnoresInternOrder(t *testing.T) {
	const accounts = 12
	ip := netip.MustParseAddr("198.51.100.7")
	build := func(reverse bool) *Provider {
		p, clock := newTestProvider()
		p.SetDeriver(implicitAccounts{})
		for i := 0; i < accounts; i++ {
			if err := p.CreateAccount(fmt.Sprintf("acct%02d@bigmail.test", i), "A B", "Password1"); err != nil {
				t.Fatal(err)
			}
		}
		order := make([]int, accounts)
		for i := range order {
			order[i] = i
		}
		if reverse {
			slices.Reverse(order)
		}
		// The first segment interns every account, in order.
		p.BeginSegment()
		for _, i := range order {
			if err := p.WebLogin(fmt.Sprintf("acct%02d@bigmail.test", i), "Password1", ip); err != nil {
				t.Fatal(err)
			}
		}
		p.EndSegment()
		// The second logs every account, and the pristine imp accounts
		// for the first time, from one goroutine per account.
		clock.Advance(time.Hour)
		p.BeginSegment()
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := p.Login(fmt.Sprintf("acct%02d@bigmail.test", i), "Password1", ip); err != nil {
					t.Error(err)
				}
				if err := p.POPLogin(fmt.Sprintf("imp%d@bigmail.test", i%4), "Implicit1", ip); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		p.EndSegment()
		return p
	}
	a, b := build(false), build(true)
	if ea, eb := a.AllLogins(), b.AllLogins(); !slices.Equal(ea, eb) {
		t.Fatal("providers that interned accounts in opposite orders sealed different logs")
	}
	if !bytes.Equal(image(a.EncodeSection), image(b.EncodeSection)) {
		t.Fatal("providers that interned accounts in opposite orders encode different sections")
	}
}

// TestRepeatLoginAllocatesNothing: once an account's address is interned
// at its first login, a correct-password web login to it appends a record
// and builds nothing.
func TestRepeatLoginAllocatesNothing(t *testing.T) {
	p, _ := newTestProvider()
	if err := p.CreateAccount("repeat@bigmail.test", "R P", "Password1"); err != nil {
		t.Fatal(err)
	}
	login := func() {
		if err := p.WebLogin("repeat@bigmail.test", "Password1", testIP); err != nil {
			t.Fatal(err)
		}
	}
	login()
	if n := testing.AllocsPerRun(100, login); n != 0 {
		t.Fatalf("a repeat login allocates %.0f objects", n)
	}
}

// TestLoggedAccountsAreLowercase: whatever case a login is typed in, the
// log records the lowercase address — the key the monitor files evidence
// under and writes in place of each event's account in its checkpoint
// section, so the two must match.
func TestLoggedAccountsAreLowercase(t *testing.T) {
	p, _ := newTestProvider()
	p.SetDeriver(implicitAccounts{})
	if err := p.CreateAccount("Mixed.Case@BigMail.test", "M C", "Password1"); err != nil {
		t.Fatal(err)
	}
	if err := p.WebLogin("MIXED.case@bigmail.TEST", "Password1", testIP); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Login("mixed.CASE@BIGMAIL.test", "Password1", testIP); err != nil {
		t.Fatal(err)
	}
	if err := p.POPLogin("IMP2@BigMail.Test", "Implicit1", testIP); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range p.AllLogins() {
		got = append(got, ev.Account)
		if ev.Account != strings.ToLower(ev.Account) {
			t.Errorf("logged account %q is not lowercase", ev.Account)
		}
	}
	if want := []string{"mixed.case@bigmail.test", "mixed.case@bigmail.test", "imp2@bigmail.test"}; !slices.Equal(got, want) {
		t.Fatalf("logged accounts %q, want %q", got, want)
	}
}

// TestDumpViewMatchesNaiveScan takes dumps whose windows span cold
// segments, the seam between the tiers and resident chunk boundaries, and
// compares each with a naive scan of every login logged — after more
// logins were appended between taking the dump and reading it.
func TestDumpViewMatchesNaiveScan(t *testing.T) {
	const budget, logins = 2500, 6000
	p := New("hmail.test")
	p.SpillLoginLog(t.TempDir(), budget)
	p.Retention = 1500 * time.Minute
	for i := 0; i < 8; i++ {
		if err := p.CreateAccount(fmt.Sprintf("acct%d@hmail.test", i), "A B", "Password1"); err != nil {
			t.Fatal(err)
		}
	}
	ip := netip.MustParseAddr("198.51.100.7")
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	now := start
	p.Now = func() time.Time { return now }
	var all []LoginEvent
	login := func(i int) {
		if i%3 == 0 { // runs of equal timestamps
			now = now.Add(time.Minute)
		}
		account := fmt.Sprintf("acct%d@hmail.test", i%8)
		if err := p.WebLogin(account, "Password1", ip); err != nil {
			t.Fatal(err)
		}
		all = append(all, LoginEvent{Account: account, Time: now, IP: ip, Method: "WEB"})
	}
	for i := 0; i < logins; i++ {
		login(i)
	}
	segments := p.SpilledSegments()
	if segments < 2 || p.ResidentLogSize() < 3*chunklog.ChunkSize {
		t.Fatalf("%d segments and %d resident logins: the dumps would not span both tiers and several chunks", segments, p.ResidentLogSize())
	}
	next := logins
	for m := -5; m <= logins/3+5; m += 53 {
		since := start.Add(time.Duration(m) * time.Minute)
		d := p.DumpSince(since)
		want := naiveDump(all, since, now.Add(-p.Retention), now)
		for k := 0; k < 4; k++ { // logins after the dump was taken
			login(next)
			next++
		}
		if got := d.Events(); d.Len() != len(want) || !slices.Equal(got, want) {
			t.Fatalf("DumpSince(minute %d): %d logins, naive scan %d", m, d.Len(), len(want))
		}
	}
	if p.SpilledSegments() != segments {
		t.Fatal("the appends after the dumps spilled, so they did not test reading a view past appends alone")
	}
}
