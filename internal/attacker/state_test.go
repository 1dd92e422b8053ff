package attacker

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tripwire/internal/emailprovider"
	"tripwire/internal/geo"
	"tripwire/internal/identity"
	"tripwire/internal/imap"
	"tripwire/internal/simclock"
	"tripwire/internal/snapshot"
	"tripwire/internal/webgen"
)

// attackerFixture is a campaign that has breached one site, with a
// stuffer that has logged attempts and advanced draw counters for two
// accounts.
type attackerFixture struct {
	camp    *Campaign
	stuffer *Stuffer
	clock   *simclock.Clock
	sched   *simclock.Scheduler
	store   *webgen.Store
	victims []*identity.Identity
}

func newAttackerFixture(t *testing.T) *attackerFixture {
	t.Helper()
	clock := simclock.New(t0)
	sched := simclock.NewScheduler(clock)
	p := emailprovider.New("bigmail.test")
	p.Now = clock.Now
	stuffer := NewStuffer(imap.NewServer(p), NewProxyPool(geo.NewSpace(), 3, 0.1), clock.Now)
	f := &attackerFixture{
		camp:    NewCampaign(DefaultCampaignConfig(t0.Add(400*24*time.Hour)), sched, stuffer, p),
		stuffer: stuffer,
		clock:   clock,
		sched:   sched,
		store:   webgen.NewStore(webgen.StoreWeakHash),
	}
	gen := identity.NewGenerator("bigmail.test", 9)
	for i := 0; i < 2; i++ {
		id := gen.New(identity.Easy)
		if err := p.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
			t.Fatal(err)
		}
		f.store.Create(id.LocalPart, id.Email, id.Password, "", t0)
		stuffer.TryLogin(Credential{Email: id.Email, Password: id.Password}, false)
		f.victims = append(f.victims, id)
	}
	f.camp.Breach("first.test", f.store, t0)
	sched.RunUntil(t0)
	return f
}

// TestAttackerSectionTracksMutations: an untouched campaign and stuffer
// re-encode byte for byte, and so do an independently built equal pair
// whatever their maps' iteration order; a breach, a stuffing login and a
// draw each change the image on their own.
func TestAttackerSectionTracksMutations(t *testing.T) {
	base := image(newAttackerFixture(t).camp.EncodeSection)
	f := newAttackerFixture(t)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(image(f.camp.EncodeSection), base) {
			t.Fatalf("encode %d of an untouched attacker differs from an equal attacker's image", i)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(f *attackerFixture)
	}{
		{"Breach", func(f *attackerFixture) {
			f.camp.Breach("second.test", f.store, t0)
			f.sched.RunUntil(t0)
		}},
		// A pinned exit draws nothing: only the attempt log moves.
		{"stuffing login", func(f *attackerFixture) {
			v := f.victims[0]
			f.stuffer.TryLoginFrom(netip.MustParseAddr("198.51.100.9"), Credential{Email: v.Email, Password: v.Password}, false)
		}},
		// A lease only advances the account's draw counter.
		{"draw", func(f *attackerFixture) { f.stuffer.LeaseIP(f.victims[1].Email) }},
	} {
		f := newAttackerFixture(t)
		tc.mutate(f)
		if bytes.Equal(image(f.camp.EncodeSection), base) {
			t.Errorf("%s left the attacker image unchanged", tc.name)
		}
	}
}

// attackerStep is one generated operation on an attacker fixture.
type attackerStep struct {
	wait   int // hours the clock advances first
	op     int // 0 breach, 1 login from a pinned exit, 2 login from a leased exit, 3 draw
	victim int
	wrong  bool // log in with a wrong password
	exit   netip.Addr
	alt    bool // breach the step's alternative domain
}

// apply performs the step, the i-th of its script, on f. Scripts stay
// well inside the fixture breach's crack delay, so no scheduled crack or
// stuffing fires.
func (st attackerStep) apply(f *attackerFixture, i int) {
	now := f.clock.Now().Add(time.Duration(st.wait) * time.Hour)
	f.sched.RunUntil(now)
	v := f.victims[st.victim]
	cred := Credential{Email: v.Email, Password: v.Password}
	if st.wrong {
		cred.Password = "not-" + v.Password
	}
	switch st.op {
	case 0:
		domain := fmt.Sprintf("step%d.test", i)
		if st.alt {
			domain = fmt.Sprintf("step%d.alt.test", i)
		}
		f.camp.Breach(domain, f.store, now)
		f.sched.RunUntil(now)
	case 1:
		f.stuffer.TryLoginFrom(st.exit, cred, false)
	case 2:
		f.stuffer.TryLogin(cred, false)
	case 3:
		f.stuffer.LeaseIP(v.Email)
	}
}

// TestAttackerStateRoundTrip: the attacker's state round-trips through
// replay, which is how a resumed study rebuilds it before attesting its
// image. Over generated scripts of breaches, stuffing logins with right
// and wrong passwords from pinned v4, v6 and zero exits or leased ones,
// and draws, hours apart or at once, every step changes the image to one
// no earlier step had — the attacker's state only grows — and an attacker
// rebuilt by replaying any prefix of the script encodes that prefix's
// image byte for byte, while one with a single step switched to another
// domain, exit, account or hour does not.
func TestAttackerStateRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		script := make([]attackerStep, 1+rng.Intn(24))
		for i := range script {
			st := attackerStep{wait: rng.Intn(3), op: rng.Intn(4), victim: rng.Intn(2), wrong: rng.Intn(3) == 0}
			switch rng.Intn(3) {
			case 0:
				var b [4]byte
				rng.Read(b[:])
				st.exit = netip.AddrFrom4(b)
			case 1:
				var b [16]byte
				rng.Read(b[:])
				st.exit = netip.AddrFrom16(b)
			}
			script[i] = st
		}
		f := newAttackerFixture(t)
		images := [][]byte{image(f.camp.EncodeSection)}
		seen := map[string]bool{string(images[0]): true}
		for i, st := range script {
			st.apply(f, i)
			img := image(f.camp.EncodeSection)
			if seen[string(img)] {
				t.Logf("seed %d: step %d (op %d) left the image at an earlier step's", seed, i, st.op)
				return false
			}
			seen[string(img)] = true
			images = append(images, img)
		}
		k := rng.Intn(len(script) + 1)
		g := newAttackerFixture(t)
		for i, st := range script[:k] {
			st.apply(g, i)
		}
		if !bytes.Equal(image(g.camp.EncodeSection), images[k]) {
			t.Logf("seed %d: replaying %d of %d steps encoded a different image", seed, k, len(script))
			return false
		}
		// The image keeps what each step wrote: switching one thing a step
		// records ends the same script at another image. A draw records
		// no time, so only its account is switched.
		j := rng.Intn(len(script))
		other := append([]attackerStep(nil), script...)
		st := &other[j]
		switch choice := rng.Intn(3); {
		case choice == 0 && st.op != 3:
			st.wait++
		case st.op == 0:
			st.alt = true
		case st.op == 1 && choice == 1:
			st.exit = netip.AddrFrom16(st.exit.As16()).Next()
		default:
			st.victim ^= 1
		}
		h := newAttackerFixture(t)
		for i, st := range other {
			st.apply(h, i)
		}
		if bytes.Equal(image(h.camp.EncodeSection), images[len(script)]) {
			t.Logf("seed %d: switching step %d to %+v left the final image unchanged", seed, j, *st)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStufferExportDrawCounters pins that draw counters reach the attacker
// image exactly, whatever order the draws came in: they are what makes the
// resumed attacker's future proxy leases and IMAP/POP splits identical to
// the uninterrupted run's.
func TestStufferExportDrawCounters(t *testing.T) {
	now := func() time.Time { return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC) }
	want := snapshot.NewEncoder()
	want.Uint(0) // breaches
	want.Uint(0) // abandoned accounts
	want.Uint(0) // resold dumps
	want.Uint(0) // attempt log
	want.Uint(2)
	want.String("a@hmail.test")
	want.Uint(2)
	want.String("b@hmail.test")
	want.Uint(1)
	for _, draws := range [][]string{
		{"a@hmail.test", "a@hmail.test", "b@hmail.test"},
		{"b@hmail.test", "a@hmail.test", "a@hmail.test"},
	} {
		s := NewStuffer(nil, nil, now)
		for _, email := range draws {
			s.nextDraw(email)
		}
		c := NewCampaign(DefaultCampaignConfig(now()), nil, s, nil)
		if got := image(c.EncodeSection); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("draws %v: image %x, want %x", draws, got, want.Bytes())
		}
	}
}

// image is the byte image one EncodeSection writes.
func image(encode func(*snapshot.Encoder)) []byte {
	e := snapshot.NewEncoder()
	encode(e)
	return e.Bytes()
}

// TestStufferDrawsOmitRecordOnlyAccounts: the stuffer's account table
// holds every account it recorded an attempt for, but only those that
// drew reach the draw counters, as when the counters were a map of their
// own.
func TestStufferDrawsOmitRecordOnlyAccounts(t *testing.T) {
	ip := netip.MustParseAddr("100.64.3.4")
	s := NewStuffer(nil, nil, func() time.Time { return t0 })
	s.record(s.begin("c@hmail.test", false).id, ip, true)
	s.nextDraw("a@hmail.test")
	want := snapshot.NewEncoder()
	want.Uint(0) // breaches
	want.Uint(0) // abandoned accounts
	want.Uint(0) // resold dumps
	want.Uint(1) // attempt log
	want.String("c@hmail.test")
	want.Time(t0)
	want.Blob(ip.AsSlice())
	want.Bool(true)
	want.Uint(1) // draw counters
	want.String("a@hmail.test")
	want.Uint(1)
	c := NewCampaign(DefaultCampaignConfig(t0), nil, s, nil)
	if got := image(c.EncodeSection); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("image %x, want %x", got, want.Bytes())
	}
}

// TestSealIgnoresInternOrder: the stuffer hands out account ids in first
// use order, which a parallel segment makes goroutine order. Two stuffers
// that meet the same accounts in opposite orders, then record and draw for
// one segment from concurrent goroutines, must seal to the same attempt
// log and encode the same section.
func TestSealIgnoresInternOrder(t *testing.T) {
	const accounts = 12
	email := func(i int) string { return fmt.Sprintf("v%02d@bigmail.test", i) }
	build := func(reverse bool) *Stuffer {
		clock := simclock.New(t0)
		st := NewStuffer(nil, NewProxyPool(geo.NewSpace(), 3, 0.1), clock.Now)
		order := make([]int, accounts)
		for i := range order {
			order[i] = i
			if reverse {
				order[i] = accounts - 1 - i
			}
		}
		st.BeginSegment()
		for _, i := range order {
			st.record(st.begin(email(i), false).id, netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), false)
		}
		st.EndSegment()
		clock.AdvanceTo(t0.Add(time.Hour))
		st.BeginSegment()
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, ok := range []bool{i%2 == 0, true} {
					a := st.begin(email(i), true)
					st.record(a.id, st.Pool.Lease(email(i), a.lease), ok)
				}
			}(i)
		}
		wg.Wait()
		st.EndSegment()
		return st
	}
	a, b := build(false), build(true)
	if !slices.Equal(a.Records(), b.Records()) {
		t.Fatal("stuffers that interned accounts in opposite orders sealed different attempt logs")
	}
	section := func(s *Stuffer) []byte {
		return image(NewCampaign(DefaultCampaignConfig(t0), nil, s, nil).EncodeSection)
	}
	if !bytes.Equal(section(a), section(b)) {
		t.Fatal("stuffers that interned accounts in opposite orders encode different sections")
	}
}
