package emailprovider

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"tripwire/internal/imap"
)

// randTime returns a canonical time, sometimes zero, so round-trip state
// compares deep-equal.
func randTime(rng *rand.Rand) time.Time {
	if rng.Intn(8) == 0 {
		return time.Time{}
	}
	return time.Unix(0, rng.Int63n(1<<50)).UTC()
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

func randString(rng *rand.Rand, max int) string {
	b := make([]byte, rng.Intn(max+1))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randLogins(rng *rand.Rand, n int) []LoginEvent {
	var evs []LoginEvent
	for i := 0; i < n; i++ {
		evs = append(evs, LoginEvent{
			Account: randString(rng, 20),
			Time:    randTime(rng),
			IP:      randAddr(rng),
			Method:  []string{"IMAP", "POP3", "WEB"}[rng.Intn(3)],
		})
	}
	return evs
}

func randProviderState(rng *rand.Rand) *ProviderState {
	st := &ProviderState{Domain: randString(rng, 12)}
	for i := 0; i < rng.Intn(6); i++ {
		var inbox []imap.Message
		for j := 0; j < rng.Intn(3); j++ {
			inbox = append(inbox, imap.Message{From: randString(rng, 10), Subject: randString(rng, 10), Body: randString(rng, 40)})
		}
		st.Accounts = append(st.Accounts, AccountState{
			Email:        fmt.Sprintf("acct%d@%s", i, st.Domain),
			Name:         randString(rng, 16),
			Password:     randString(rng, 10),
			State:        State(rng.Intn(4)),
			ForwardTo:    randString(rng, 16),
			Inbox:        inbox,
			FailedSince:  randTime(rng),
			FailedCount:  rng.Intn(20),
			ThrottledTil: randTime(rng),
		})
	}
	st.Logins = randLogins(rng, rng.Intn(8))
	return st
}

// TestProviderStateRoundTrip: encode→decode is deep-equal and
// decode→encode is byte-stable, over generated states.
func TestProviderStateRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randProviderState(rng)
		data := providerImage(st)
		got, err := DecodeProviderState(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !reflect.DeepEqual(got, st) {
			t.Logf("state mismatch:\n got %+v\nwant %+v", got, st)
			return false
		}
		return bytes.Equal(providerImage(got), data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestProviderStateDecodeRejectsTruncation: every strict prefix of a
// non-trivial encoding errors rather than decoding silently.
func TestProviderStateDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var st *ProviderState
	for st = randProviderState(rng); len(st.Accounts) == 0 || len(st.Logins) == 0; {
		st = randProviderState(rng)
	}
	data := providerImage(st)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeProviderState(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(data))
		}
	}
}

// TestExportStateRoundTrip drives a real provider and round-trips its
// export, pinning that live state (not just generated structs) survives.
func TestExportStateRoundTrip(t *testing.T) {
	p := New("hmail.test")
	now := time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)
	p.Now = func() time.Time { return now }
	for i := 0; i < 5; i++ {
		email := fmt.Sprintf("user%d@hmail.test", i)
		if err := p.CreateAccount(email, "User Name", "Password1"); err != nil {
			t.Fatal(err)
		}
		if err := p.SetForwarding(email, "sink@collector.test"); err != nil {
			t.Fatal(err)
		}
	}
	ip := netip.MustParseAddr("203.0.113.9")
	for i := 0; i < 20; i++ {
		now = now.Add(time.Hour)
		if err := p.WebLogin(fmt.Sprintf("user%d@hmail.test", i%5), "Password1", ip); err != nil {
			t.Fatal(err)
		}
	}
	p.Freeze("user3@hmail.test")
	if err := p.Deliver("noreply@site1.test", "user0@hmail.test", "welcome", "hello"); err != nil {
		t.Fatal(err)
	}

	st := p.ExportState()
	if len(st.Accounts) != 5 || len(st.Logins) != 20 {
		t.Fatalf("export: %d accounts, %d logins", len(st.Accounts), len(st.Logins))
	}
	got, err := DecodeProviderState(providerImage(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("live provider export did not survive a codec round trip")
	}
	// A second export is byte-identical: exporting is read-only and
	// deterministic.
	if !bytes.Equal(providerImage(p.ExportState()), providerImage(st)) {
		t.Fatal("re-export changed bytes")
	}
}
