package attacker

import (
	"fmt"
	"testing"

	"tripwire/internal/emailprovider"
	"tripwire/internal/geo"
	"tripwire/internal/imap"
	"tripwire/internal/pop3"
	"tripwire/internal/simclock"
)

// stuffLoginFixture is a stuffer whose logins all go over one protocol to
// a provider on a simclock.Clock, with accounts provisioned and one login
// to each already made, so every later login runs the steady state: no
// account is new to either log and no buffer grows.
func stuffLoginFixture(tb testing.TB, pop bool) (*Stuffer, []Credential) {
	tb.Helper()
	clock := simclock.New(t0)
	p := emailprovider.New("bigmail.test")
	p.Now = clock.Now
	st := NewStuffer(imap.NewServer(p), NewProxyPool(geo.NewSpace(), 2, 0.25), clock.Now)
	if pop {
		st.UsePOP(pop3.NewServer(p.POPBackend()), 1, 9)
	}
	creds := make([]Credential, 64)
	for i := range creds {
		creds[i] = Credential{Email: fmt.Sprintf("victim%02d@bigmail.test", i), Password: "Website1"}
		if err := p.CreateAccount(creds[i].Email, "V", creds[i].Password); err != nil {
			tb.Fatal(err)
		}
		if ok, _ := st.TryLogin(creds[i], true); !ok {
			tb.Fatalf("login to %s failed", creds[i].Email)
		}
	}
	return st, creds
}

// BenchmarkStuffLogin measures one steady-state stuffed login with siphon
// on, proxy lease and protocol draw included, over each protocol.
func BenchmarkStuffLogin(b *testing.B) {
	for _, proto := range []string{"imap", "pop3"} {
		b.Run(proto, func(b *testing.B) {
			st, creds := stuffLoginFixture(b, proto == "pop3")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.TryLogin(creds[i%len(creds)], true)
			}
		})
	}
}

// TestStuffLoginAllocs pins what one steady-state stuffed login allocates.
// Over IMAP: the user and password strings and the SELECT mailbox name the
// server hands the provider, the provider's session, and the proxy lease's
// generator. Over POP3 there is no mailbox name to convert, and the
// protocol draw takes a generator of its own.
func TestStuffLoginAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled bots at random")
	}
	for _, tc := range []struct {
		proto string
		max   float64
	}{{"imap", 5}, {"pop3", 5}} {
		st, creds := stuffLoginFixture(t, tc.proto == "pop3")
		i := 0
		got := testing.AllocsPerRun(200, func() {
			st.TryLogin(creds[i%len(creds)], true)
			i++
		})
		if got > tc.max {
			t.Errorf("%s: a login allocates %.1f objects, want at most %.0f", tc.proto, got, tc.max)
		}
	}
}
