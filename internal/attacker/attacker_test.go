package attacker

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tripwire/internal/chunklog"
	"tripwire/internal/emailprovider"
	"tripwire/internal/geo"
	"tripwire/internal/identity"
	"tripwire/internal/imap"
	"tripwire/internal/pop3"
	"tripwire/internal/simclock"
	"tripwire/internal/webgen"
)

var t0 = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

func dumpFor(t *testing.T, policy webgen.StoragePolicy, entries map[string]string) []webgen.DumpEntry {
	t.Helper()
	st := webgen.NewStore(policy)
	i := 0
	for email, pw := range entries {
		user := strings.Split(email, "@")[0]
		salt := ""
		if policy == webgen.StoreStrongHash {
			salt = "salt" + user
		}
		if _, err := st.Create(user, email, pw, salt, t0); err != nil {
			t.Fatal(err)
		}
		i++
	}
	return st.Dump()
}

func TestCrackerPlaintextRecoversAll(t *testing.T) {
	c := &Cracker{Words: identity.DictionaryWords()}
	dump := dumpFor(t, webgen.StorePlaintext, map[string]string{
		"a@bigmail.test": "x9Qz7TkPm2", // hard-style
		"b@bigmail.test": "Website1",
	})
	creds := c.Crack(dump)
	if len(creds) != 2 {
		t.Fatalf("plaintext crack recovered %d of 2", len(creds))
	}
}

func TestCrackerReversible(t *testing.T) {
	c := &Cracker{Words: identity.DictionaryWords()}
	dump := dumpFor(t, webgen.StoreReversible, map[string]string{
		"a@bigmail.test": "x9Qz7TkPm2",
	})
	creds := c.Crack(dump)
	if len(creds) != 1 || creds[0].Password != "x9Qz7TkPm2" {
		t.Fatalf("reversible crack = %+v", creds)
	}
}

func TestCrackerHashSeparatesClasses(t *testing.T) {
	gen := identity.NewGenerator("bigmail.test", 5)
	hard := gen.New(identity.Hard)
	easy := gen.New(identity.Easy)
	for _, policy := range []webgen.StoragePolicy{webgen.StoreWeakHash, webgen.StoreStrongHash} {
		c := &Cracker{Words: identity.DictionaryWords()}
		dump := dumpFor(t, policy, map[string]string{
			hard.Email: hard.Password,
			easy.Email: easy.Password,
		})
		creds := c.Crack(dump)
		if len(creds) != 1 {
			t.Fatalf("%v: recovered %d, want exactly the easy one", policy, len(creds))
		}
		if creds[0].Email != easy.Email || creds[0].Password != easy.Password {
			t.Fatalf("%v: recovered %+v", policy, creds[0])
		}
	}
}

func TestFilterByDomain(t *testing.T) {
	dump := []webgen.DumpEntry{
		{Email: "a@bigmail.test"},
		{Email: "b@Other.test"},
		{Email: "c@BIGMAIL.TEST"},
		{Email: "d@notbigmail.test"},
	}
	got := FilterByDomain(dump, "bigmail.test")
	if len(got) != 2 || got[0].Email != "a@bigmail.test" || got[1].Email != "c@BIGMAIL.TEST" {
		t.Fatalf("filtered = %+v", got)
	}
}

func TestProxyPoolReuseAndCount(t *testing.T) {
	pool := NewProxyPool(geo.NewSpace(), 1, 0.5)
	seen := make(map[netip.Addr]int)
	for n := uint64(0); n < 2000; n++ {
		seen[pool.Lease("reuse@bigmail.test", n)]++
	}
	reused := 0
	for _, n := range seen {
		if n > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no proxy reuse with ReuseProb 0.5")
	}
	if len(seen) < 500 {
		t.Fatalf("distinct proxies %d suspiciously low", len(seen))
	}
}

// TestProxyPoolLeaseConcurrent: leases from many goroutines on a fresh
// pool, racing to build its hot set, equal the same leases made serially.
func TestProxyPoolLeaseConcurrent(t *testing.T) {
	const keys, draws = 8, 200
	want := make([][]netip.Addr, keys)
	serial := NewProxyPool(geo.NewSpace(), 7, 0.5)
	for k := range want {
		for n := uint64(0); n < draws; n++ {
			want[k] = append(want[k], serial.Lease(fmt.Sprintf("k%d@bigmail.test", k), n))
		}
	}
	pool := NewProxyPool(geo.NewSpace(), 7, 0.5)
	got := make([][]netip.Addr, keys)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := uint64(0); n < draws; n++ {
				got[k] = append(got[k], pool.Lease(fmt.Sprintf("k%d@bigmail.test", k), n))
			}
		}(k)
	}
	wg.Wait()
	for k := range want {
		if !slices.Equal(got[k], want[k]) {
			t.Fatalf("key %d: concurrent leases differ from serial ones", k)
		}
	}
}

// stuffFixture wires a provider + IMAP server + stuffer on a virtual clock.
func stuffFixture(t *testing.T) (*emailprovider.Provider, *Stuffer, *simclock.Clock) {
	t.Helper()
	clock := simclock.New(t0)
	p := emailprovider.New("bigmail.test")
	p.Now = clock.Now
	pool := NewProxyPool(geo.NewSpace(), 2, 0.1)
	st := NewStuffer(imap.NewServer(p), pool, clock.Now)
	return p, st, clock
}

func TestStufferLoginRecordsProviderEvent(t *testing.T) {
	p, st, _ := stuffFixture(t)
	p.CreateAccount("victim99@bigmail.test", "V", "Website1")
	p.Send("x@site.test", "victim99@bigmail.test", "Hello", "content")

	ok, ip := st.TryLogin(Credential{Email: "victim99@bigmail.test", Password: "Website1"}, true)
	if !ok {
		t.Fatal("valid credential rejected")
	}
	evs := p.AllLogins()
	if len(evs) != 1 {
		t.Fatalf("provider logged %d events", len(evs))
	}
	if evs[0].IP != ip || evs[0].Method != "IMAP" {
		t.Fatalf("event = %+v, ip = %v", evs[0], ip)
	}
	recs := st.Records()
	if len(recs) != 1 || !recs[0].Success {
		t.Fatalf("records = %+v", recs)
	}
}

// TestStufferEndSegmentAcrossChunks seals a segment that starts in one
// chunk of the record log and ends in the next; the records must end up
// exactly as a stable sort by account of a flat copy.
func TestStufferEndSegmentAcrossChunks(t *testing.T) {
	st := NewStuffer(nil, nil, func() time.Time { return t0 })
	var flat []LoginRecord
	rec := func(email string, i int) {
		ip := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
		st.record(email, ip, i%3 != 0)
		flat = append(flat, LoginRecord{Email: email, Time: t0, IP: ip, Success: i%3 != 0})
	}
	before := chunklog.ChunkSize - 6
	for i := 0; i < before; i++ {
		rec(fmt.Sprintf("pre%04d@bigmail.test", i), i)
	}
	st.BeginSegment()
	// Accounts repeat, so stability decides the order among equals; the IP
	// records the append order.
	for i := 0; i < 40; i++ {
		rec(fmt.Sprintf("v%d@bigmail.test", (i*7)%9), before+i)
	}
	st.EndSegment()
	slices.SortStableFunc(flat[before:], func(a, b LoginRecord) int { return strings.Compare(a.Email, b.Email) })
	if got := st.Records(); !slices.Equal(got, flat) {
		t.Fatal("sealed records differ from a stable sort of a flat copy")
	}
}

func TestStufferWrongPasswordNotLogged(t *testing.T) {
	p, st, _ := stuffFixture(t)
	p.CreateAccount("victim98@bigmail.test", "V", "RealPass1")
	ok, _ := st.TryLogin(Credential{Email: "victim98@bigmail.test", Password: "Wrong1"}, false)
	if ok {
		t.Fatal("wrong credential accepted")
	}
	if len(p.AllLogins()) != 0 {
		t.Fatal("failed login appeared in provider log")
	}
}

func TestStufferPinnedIP(t *testing.T) {
	p, st, _ := stuffFixture(t)
	p.CreateAccount("victim97@bigmail.test", "V", "Website1")
	ip := netip.MustParseAddr("100.64.3.4")
	for i := 0; i < 5; i++ {
		if !st.TryLoginFrom(ip, Credential{Email: "victim97@bigmail.test", Password: "Website1"}, false) {
			t.Fatal("pinned-IP login failed")
		}
	}
	for _, ev := range p.AllLogins() {
		if ev.IP != ip {
			t.Fatalf("event from %v, want pinned %v", ev.IP, ip)
		}
	}
}

// TestCampaignEndToEnd drives one breach through exfil, cracking, and
// stuffing over virtual time and asserts the easy/hard asymmetry.
// countingBackend accepts every login, recording how many goroutines were
// running while it served each one.
type countingBackend struct{ goroutines []int }

func (b *countingBackend) Login(user, pass string, remote netip.Addr) (imap.Session, error) {
	b.goroutines = append(b.goroutines, runtime.NumGoroutine())
	return oneMessage{}, nil
}

type oneMessage struct{}

func (oneMessage) Select(string) (int, error) { return 1, nil }
func (oneMessage) Fetch(int) (imap.Message, error) {
	return imap.Message{From: "a@site.test", Subject: "Hi", Body: ".dot\r\nbody"}, nil
}
func (oneMessage) Logout() error { return nil }

// TestStufferStartsNoGoroutinePerLogin: the provider's half of a stuffed
// login runs on the stuffer's own goroutine, over IMAP and POP3 alike.
func TestStufferStartsNoGoroutinePerLogin(t *testing.T) {
	for _, viaPOP := range []bool{false, true} {
		imapB, popB := &countingBackend{}, &countingBackend{}
		st := NewStuffer(imap.NewServer(imapB), NewProxyPool(geo.NewSpace(), 6, 0.1), func() time.Time { return t0 })
		served := imapB
		if viaPOP {
			st.UsePOP(pop3.NewServer(popB), 1, 9)
			served = popB
		}
		before := runtime.NumGoroutine()
		if ok, _ := st.TryLogin(Credential{Email: "g@bigmail.test", Password: "pw"}, true); !ok {
			t.Fatalf("pop=%v: login failed", viaPOP)
		}
		if len(imapB.goroutines)+len(popB.goroutines) != 1 || len(served.goroutines) != 1 {
			t.Fatalf("pop=%v: IMAP served %d logins, POP3 %d", viaPOP, len(imapB.goroutines), len(popB.goroutines))
		}
		if got := served.goroutines[0]; got != before {
			t.Fatalf("pop=%v: %d goroutines during Login, %d before TryLogin", viaPOP, got, before)
		}
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	clock := simclock.New(t0)
	sched := simclock.NewScheduler(clock)
	p := emailprovider.New("bigmail.test")
	p.Now = clock.Now
	pool := NewProxyPool(geo.NewSpace(), 3, 0.1)
	stuffer := NewStuffer(imap.NewServer(p), pool, clock.Now)
	end := t0.Add(400 * 24 * time.Hour)
	cfg := DefaultCampaignConfig(end)
	camp := NewCampaign(cfg, sched, stuffer, p)

	gen := identity.NewGenerator("bigmail.test", 9)
	hard := gen.New(identity.Hard)
	easy := gen.New(identity.Easy)
	for _, id := range []*identity.Identity{hard, easy} {
		if err := p.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
			t.Fatal(err)
		}
	}
	store := webgen.NewStore(webgen.StoreWeakHash)
	local := func(email string) string { return strings.Split(email, "@")[0] }
	store.Create(local(hard.Email), hard.Email, hard.Password, "", t0)
	store.Create(local(easy.Email), easy.Email, easy.Password, "", t0)

	camp.Breach("victimsite.test", store, t0.Add(24*time.Hour))
	sched.RunUntil(end)

	if when, ok := camp.Breaches()["victimsite.test"]; !ok || when.Before(t0) {
		t.Fatalf("breach record missing: %v %v", when, ok)
	}
	evs := p.AllLogins()
	if len(evs) == 0 {
		t.Fatal("no provider logins after breach of weak-hash site with an easy account")
	}
	for _, ev := range evs {
		if ev.Account == hard.Email {
			t.Fatal("hard-password account accessed despite hashed storage")
		}
		if ev.Account != easy.Email {
			t.Fatalf("unexpected account %s accessed", ev.Account)
		}
	}
}

func TestCampaignPlaintextExposesHard(t *testing.T) {
	clock := simclock.New(t0)
	sched := simclock.NewScheduler(clock)
	p := emailprovider.New("bigmail.test")
	p.Now = clock.Now
	pool := NewProxyPool(geo.NewSpace(), 4, 0.1)
	stuffer := NewStuffer(imap.NewServer(p), pool, clock.Now)
	end := t0.Add(400 * 24 * time.Hour)
	camp := NewCampaign(DefaultCampaignConfig(end), sched, stuffer, p)

	gen := identity.NewGenerator("bigmail.test", 11)
	hard := gen.New(identity.Hard)
	p.CreateAccount(hard.Email, hard.FullName(), hard.Password)
	store := webgen.NewStore(webgen.StorePlaintext)
	store.Create("huser", hard.Email, hard.Password, "", t0)

	camp.Breach("plainsite.test", store, t0.Add(24*time.Hour))
	sched.RunUntil(end)

	found := false
	for _, ev := range p.AllLogins() {
		if ev.Account == hard.Email {
			found = true
		}
	}
	if !found {
		t.Fatal("hard account not accessed despite plaintext storage")
	}
}

func TestProfileStrings(t *testing.T) {
	for _, p := range []Profile{ProfileOneShot, ProfileFewChecks, ProfileScraper, ProfileBurstyMulti, ProfileBurstySingle} {
		if strings.Contains(p.String(), "?") {
			t.Errorf("Profile %d has no name", int(p))
		}
	}
}
