package emailprovider

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"tripwire/internal/chunklog"
	"tripwire/internal/loginrec"
	"tripwire/internal/simclock"
	"tripwire/internal/snapshot"
)

// implicitAccounts covers imp0..imp3@bigmail.test, so a provider using it
// holds pristine accounts that exist only through the deriver.
type implicitAccounts struct{}

func (implicitAccounts) DeriveAccount(email string) (DerivedAccount, bool) {
	for i := 0; i < 4; i++ {
		if email == fmt.Sprintf("imp%d@bigmail.test", i) {
			return DerivedAccount{Name: fmt.Sprintf("Imp %d", i), Password: "Implicit1", ForwardTo: "relay@tripwire.test"}, true
		}
	}
	return DerivedAccount{}, false
}

func (implicitAccounts) DerivedCount() int64 { return 4 }

// providerFixture is a provider with implicit and explicit accounts,
// forwarding, an inbox and logins on both, on a virtual clock.
func providerFixture(t *testing.T) (*Provider, *simclock.Clock) {
	t.Helper()
	p, clock := newTestProvider()
	p.SetDeriver(implicitAccounts{})
	for i := 0; i < 5; i++ {
		email := fmt.Sprintf("user%d@bigmail.test", i)
		if err := p.CreateAccount(email, "User Name", "Password1"); err != nil {
			t.Fatal(err)
		}
		if err := p.SetForwarding(email, "sink@collector.test"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		clock.AdvanceTo(clock.Now().Add(time.Hour))
		if err := p.WebLogin(fmt.Sprintf("user%d@bigmail.test", i%5), "Password1", testIP); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WebLogin("imp0@bigmail.test", "Implicit1", testIP); err != nil {
		t.Fatal(err)
	}
	if err := p.Deliver("noreply@site1.test", "user0@bigmail.test", "welcome", "hello"); err != nil {
		t.Fatal(err)
	}
	return p, clock
}

// TestProviderSectionTracksMutations: an untouched provider re-encodes
// byte for byte, and so does an independently built equal one whatever its
// shard and map order; each single mutation through the provider's API
// changes the image — a pristine implicit account by its login alone, or
// by being materialized.
func TestProviderSectionTracksMutations(t *testing.T) {
	p, _ := providerFixture(t)
	base := image(p.EncodeSection)
	q, _ := providerFixture(t)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(image(q.EncodeSection), base) {
			t.Fatalf("encode %d of an untouched provider differs from an equal provider's image", i)
		}
	}
	other := netip.MustParseAddr("198.51.100.20")
	for _, tc := range []struct {
		name   string
		mutate func(p *Provider) error
	}{
		{"WebLogin", func(p *Provider) error { return p.WebLogin("user1@bigmail.test", "Password1", other) }},
		{"WebLogin to an implicit account", func(p *Provider) error { return p.WebLogin("imp1@bigmail.test", "Implicit1", other) }},
		{"failed WebLogin", func(p *Provider) error {
			if err := p.WebLogin("user2@bigmail.test", "wrong", other); err == nil {
				return fmt.Errorf("a wrong password logged in")
			}
			return nil
		}},
		{"Freeze", func(p *Provider) error {
			if !p.Freeze("user3@bigmail.test") {
				return fmt.Errorf("no account to freeze")
			}
			return nil
		}},
		{"Freeze an implicit account", func(p *Provider) error {
			if !p.Freeze("imp2@bigmail.test") {
				return fmt.Errorf("no account to freeze")
			}
			return nil
		}},
		{"Deliver", func(p *Provider) error {
			return p.Deliver("noreply@site2.test", "user4@bigmail.test", "verify", "click")
		}},
		{"Deliver to an implicit account", func(p *Provider) error {
			return p.Deliver("noreply@site2.test", "imp3@bigmail.test", "verify", "click")
		}},
		{"SetForwarding", func(p *Provider) error { return p.SetForwarding("user1@bigmail.test", "elsewhere@collector.test") }},
		{"CreateAccount", func(p *Provider) error { return p.CreateAccount("newcomer@bigmail.test", "New Comer", "Password2") }},
	} {
		p, clock := providerFixture(t)
		clock.AdvanceTo(clock.Now().Add(time.Hour))
		if err := tc.mutate(p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if bytes.Equal(image(p.EncodeSection), base) {
			t.Errorf("%s left the provider image unchanged", tc.name)
		}
	}
}

// image is the byte image one EncodeSection writes.
func image(encode func(*snapshot.Encoder)) []byte {
	e := snapshot.NewEncoder()
	encode(e)
	return e.Bytes()
}

// TestLoginEventsCodecRoundTrip: the cold tier's codec is lossless. Logins
// over v4, v6 and zero addresses and zero times, logged and written out as
// a cold segment's payload, read back as the same events, re-encode byte
// for byte, and every truncation is rejected.
func TestLoginEventsCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		var evs []LoginEvent
		for i := rng.Intn(8); i > 0; i-- {
			ev := LoginEvent{Account: fmt.Sprintf("acct%d@bigmail.test", rng.Intn(100)), Method: []string{"IMAP", "POP3", "WEB"}[rng.Intn(3)]}
			if rng.Intn(8) > 0 {
				ev.Time = time.Unix(0, rng.Int63n(1<<50)).UTC()
			}
			ev.IP = randAddr(rng)
			evs = append(evs, ev)
		}
		slices.SortStableFunc(evs, func(a, b LoginEvent) int { return a.Time.Compare(b.Time) })
		r := loginLog{at: "@bigmail.test"}
		for _, ev := range evs {
			appendEvent(t, &r, ev)
		}
		e := snapshot.NewEncoder()
		loginrec.EncodeSegment(e, r.log.Window(0, r.log.Len()))
		data := e.Bytes()
		decode := func(data []byte) ([]loginrec.Record, error) {
			return loginrec.DecodeSegment(snapshot.NewDecoder(data), len(r.log.Names()), len(r.log.Addrs()))
		}
		recs, err := decode(data)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := (Dump{cold: recs, names: r.log.Names(), addrs: r.log.Addrs()}).Events(); !slices.Equal(got, evs) {
			t.Fatalf("round %d: decoded %+v, want %+v", round, got, evs)
		}
		var again chunklog.Log[loginrec.Record]
		for _, rec := range recs {
			again.Append(rec)
		}
		re := snapshot.NewEncoder()
		loginrec.EncodeSegment(re, again.Window(0, again.Len()))
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("round %d: re-encoding is not byte-stable", round)
		}
		for n := 0; n < len(data); n++ {
			if _, err := decode(data[:n]); err == nil {
				t.Fatalf("round %d: truncation to %d of %d bytes decoded silently", round, n, len(data))
			}
		}
	}
}

// randAddr returns a v4, v6, or zero address.
func randAddr(rng *rand.Rand) netip.Addr {
	switch rng.Intn(3) {
	case 0:
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	case 1:
		var b [16]byte
		rng.Read(b[:])
		return netip.AddrFrom16(b)
	default:
		return netip.Addr{}
	}
}

// TestProviderStateRoundTrip: the provider's state round-trips through
// its cold tier. Over generated histories — accounts, IMAP, POP3 and web
// logins from v4, v6 and zero addresses, failed logins, mail, bursts of
// equal timestamps — a provider that spills its login log to segment files
// at a random budget, and so reads them back to encode, writes the section
// image byte for byte as one that keeps everything resident, returns the
// same logins, and re-encodes byte for byte.
func TestProviderStateRoundTrip(t *testing.T) {
	logins := []func(p *Provider, email, password string, ip netip.Addr) error{
		(*Provider).WebLogin,
		(*Provider).POPLogin,
		func(p *Provider, email, password string, ip netip.Addr) error {
			_, err := p.Login(email, password, ip)
			return err
		},
	}
	spilled := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := simclock.New(time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC))
		ref, sp := New("bigmail.test"), New("bigmail.test")
		ref.Now, sp.Now = clock.Now, clock.Now
		sp.SpillLoginLog(t.TempDir(), 1+rng.Intn(12))
		accounts := 1 + rng.Intn(6)
		for i := 0; i < accounts; i++ {
			email := fmt.Sprintf("acct%d@bigmail.test", i)
			for _, p := range []*Provider{ref, sp} {
				if err := p.CreateAccount(email, "Acct Holder", "Password1"); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := rng.Intn(60); i > 0; i-- {
			if rng.Intn(3) == 0 {
				clock.AdvanceTo(clock.Now().Add(time.Duration(1+rng.Intn(90)) * time.Minute))
			}
			email := fmt.Sprintf("acct%d@bigmail.test", rng.Intn(accounts))
			password := "Password1"
			if rng.Intn(6) == 0 {
				password = "wrong"
			}
			login, ip := logins[rng.Intn(len(logins))], randAddr(rng)
			if errRef, errSp := login(ref, email, password, ip), login(sp, email, password, ip); (errRef == nil) != (errSp == nil) {
				t.Logf("seed %d: login outcomes differ: %v vs %v", seed, errRef, errSp)
				return false
			}
			if rng.Intn(10) == 0 {
				for _, p := range []*Provider{ref, sp} {
					if err := p.Deliver("noreply@site1.test", email, "welcome", "hello"); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if sp.SpilledSegments() > 0 {
			spilled++
		}
		want := image(ref.EncodeSection)
		got := image(sp.EncodeSection)
		if err := sp.SpillErr(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !bytes.Equal(got, want) {
			t.Logf("seed %d: spilled provider's image differs from the all-resident one", seed)
			return false
		}
		if !bytes.Equal(image(sp.EncodeSection), got) {
			t.Logf("seed %d: re-encoding is not byte-stable", seed)
			return false
		}
		if !reflect.DeepEqual(sp.AllLogins(), ref.AllLogins()) {
			t.Logf("seed %d: spilled provider's logins differ from the all-resident ones", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if spilled < 100 {
		t.Fatalf("only %d of 200 histories spilled, so the cold tier was barely read", spilled)
	}
}

// TestProviderStateDecodeRejectsTruncation: the state a provider decodes
// back is its cold login tier, which every section image re-reads. A
// spilled segment file cut to any strict prefix surfaces as SpillErr when
// the image is next encoded, rather than decoding silently into a shorter
// log.
func TestProviderStateDecodeRejectsTruncation(t *testing.T) {
	build := func() *Provider {
		p, clock := newTestProvider()
		p.SpillLoginLog(t.TempDir(), 4)
		if err := p.CreateAccount("user1@bigmail.test", "User Name", "Password1"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			clock.AdvanceTo(clock.Now().Add(time.Hour))
			if err := p.WebLogin("user1@bigmail.test", "Password1", testIP); err != nil {
				t.Fatal(err)
			}
		}
		if n := p.SpilledSegments(); n != 1 {
			t.Fatalf("%d spilled segments, want 1", n)
		}
		return p
	}
	p := build()
	image(p.EncodeSection)
	if err := p.SpillErr(); err != nil {
		t.Fatalf("intact segment: %v", err)
	}
	data, err := os.ReadFile(p.spill.segments[0].path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		q := build()
		if err := os.WriteFile(q.spill.segments[0].path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		image(q.EncodeSection)
		if q.SpillErr() == nil {
			t.Fatalf("segment truncated to %d of %d bytes encoded without error", n, len(data))
		}
	}
}
