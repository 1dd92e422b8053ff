package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/identity"
	"tripwire/internal/snapshot"
)

// image is the byte image one EncodeSection writes.
func image(encode func(*snapshot.Encoder)) []byte {
	e := snapshot.NewEncoder()
	encode(e)
	return e.Bytes()
}

// ledgerFixture is a ledger holding every kind of state its section
// records: span-backed pools of both classes, an explicit identity,
// control accounts, burned registrations from a span (so burned ranks
// too), and an identity taken but not yet burned.
type ledgerFixture struct {
	l      *Ledger
	gen    *identity.Generator
	burned *identity.Identity // registered at site2.test
	held   *identity.Identity // taken, not burned
}

func newLedgerFixture() *ledgerFixture {
	g := newGen()
	l := NewLedger()
	l.SetDeriver(g.At)
	l.SetRankFn(g.RankOf)
	l.ExtendPool(identity.Hard, g.Reserve(identity.Hard, 8), 8)
	l.ExtendPool(identity.Easy, g.Reserve(identity.Easy, 8), 8)
	l.AddIdentity(g.New(identity.Easy))
	for i := 0; i < 3; i++ {
		l.AddControl(g.New(identity.Hard))
	}
	f := &ledgerFixture{l: l, gen: g}
	for i := 0; i < 3; i++ {
		f.burned = l.Take(identity.Hard)
		l.Burn(f.burned, fmt.Sprintf("site%d.test", i), i+1, "news", t0, crawler.CodeOKSubmission, false)
	}
	f.held = l.Take(identity.Easy)
	return f
}

// TestLedgerSectionTracksMutations: an untouched ledger re-encodes byte
// for byte, and so does an independently built equal one whatever its
// maps' iteration order; each single mutation through the ledger's API
// changes the image.
func TestLedgerSectionTracksMutations(t *testing.T) {
	base := image(newLedgerFixture().l.EncodeSection)
	f := newLedgerFixture()
	for i := 0; i < 3; i++ {
		if !bytes.Equal(image(f.l.EncodeSection), base) {
			t.Fatalf("encode %d of an untouched ledger differs from an equal ledger's image", i)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(f *ledgerFixture)
	}{
		{"Burn", func(f *ledgerFixture) {
			f.l.Burn(f.l.Take(identity.Hard), "site9.test", 9, "news", t0, crawler.CodeOKSubmission, false)
		}},
		{"Burn manual", func(f *ledgerFixture) {
			f.l.Burn(f.held, "site9.test", 9, "news", t0, crawler.CodeOKSubmission, true)
		}},
		{"NoteEmail", func(f *ledgerFixture) { f.l.NoteEmail(f.burned.Email, true) }},
		{"Return", func(f *ledgerFixture) { f.l.Return(f.held) }},
		{"Take", func(f *ledgerFixture) { f.l.Take(identity.Hard) }},
		{"AddIdentity", func(f *ledgerFixture) { f.l.AddIdentity(f.gen.New(identity.Hard)) }},
		{"AddControl", func(f *ledgerFixture) { f.l.AddControl(f.gen.New(identity.Easy)) }},
		{"ExtendPool", func(f *ledgerFixture) { f.l.ExtendPool(identity.Easy, f.gen.Reserve(identity.Easy, 2), 2) }},
	} {
		f := newLedgerFixture()
		tc.mutate(f)
		if bytes.Equal(image(f.l.EncodeSection), base) {
			t.Errorf("%s left the ledger image unchanged", tc.name)
		}
	}
}

// ledgerRun is a ledger fixture under a generated script, with the
// identities the script holds (taken, not yet burned or returned) and
// those it burned, starting with the fixture's.
type ledgerRun struct {
	*ledgerFixture
	held   []*identity.Identity
	burned []string
}

func newLedgerRun() *ledgerRun {
	f := newLedgerFixture()
	return &ledgerRun{ledgerFixture: f, held: []*identity.Identity{f.held}, burned: []string{f.burned.Email}}
}

// ledgerStep is one generated operation on a ledger.
type ledgerStep struct {
	op    int // 0 Take, 1 Burn, 2 NoteEmail, 3 Return, 4 AddIdentity, 5 AddControl, 6 ExtendPool
	class identity.PasswordClass
	pick  int  // which held or burned identity
	flag  bool // Burn: manual; NoteEmail: a verification mail
	code  crawler.Code
	n     int // ExtendPool width
}

// apply performs the step, the i-th of its script, and reports whether it
// must have changed the ledger's state.
func (st ledgerStep) apply(r *ledgerRun, i int) bool {
	l := r.l
	switch st.op {
	case 0:
		id := l.Take(st.class)
		if id == nil {
			return false
		}
		r.held = append(r.held, id)
	case 1, 3:
		if len(r.held) == 0 {
			return false
		}
		k := st.pick % len(r.held)
		id := r.held[k]
		r.held = append(r.held[:k], r.held[k+1:]...)
		if st.op == 3 {
			l.Return(id)
			return true
		}
		l.Burn(id, fmt.Sprintf("step%d.test", i), 100+i, "news", t0, st.code, st.flag)
		r.burned = append(r.burned, id.Email)
	case 2:
		email := r.burned[st.pick%len(r.burned)]
		reg, _ := l.Lookup(email)
		was := reg.Status
		return l.NoteEmail(email, st.flag).Status != was
	case 4:
		l.AddIdentity(r.gen.New(st.class))
	case 5:
		l.AddControl(r.gen.New(st.class))
	case 6:
		l.ExtendPool(st.class, r.gen.Reserve(st.class, st.n), int64(st.n))
	}
	return true
}

// TestLedgerStateRoundTrip: the ledger's state round-trips through
// replay, which is how a resumed study rebuilds it before attesting its
// image. Over generated scripts of takes, burns with every
// status-deciding code and manual flag, status mail,
// returns, added identities and controls and pool extensions, each step
// changes the image exactly when it changes the ledger, and a ledger
// rebuilt by replaying any prefix of the script encodes that prefix's
// image byte for byte.
func TestLedgerStateRoundTrip(t *testing.T) {
	codes := []crawler.Code{crawler.CodeOKSubmission, crawler.CodeSubmissionFailed, crawler.CodeFieldsMissing}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		script := make([]ledgerStep, 1+rng.Intn(40))
		for i := range script {
			script[i] = ledgerStep{
				op:    rng.Intn(7),
				class: identity.PasswordClass(rng.Intn(2)),
				pick:  rng.Intn(8),
				flag:  rng.Intn(2) == 0,
				code:  codes[rng.Intn(len(codes))],
				n:     1 + rng.Intn(3),
			}
		}
		r := newLedgerRun()
		images := [][]byte{image(r.l.EncodeSection)}
		for i, st := range script {
			changed := st.apply(r, i)
			img := image(r.l.EncodeSection)
			if moved := !bytes.Equal(img, images[i]); moved != changed {
				t.Logf("seed %d: step %d (op %d) changed the ledger: %v, the image: %v", seed, i, st.op, changed, moved)
				return false
			}
			images = append(images, img)
		}
		k := rng.Intn(len(script) + 1)
		q := newLedgerRun()
		for i, st := range script[:k] {
			st.apply(q, i)
		}
		if !bytes.Equal(image(q.l.EncodeSection), images[k]) {
			t.Logf("seed %d: replaying %d of %d steps encoded a different image", seed, k, len(script))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerExportRoundTrip exercises a live ledger end to end: its image
// carries a burned registration whole, at the status mail lifted it to,
// and the control account, and re-encodes byte for byte; and a ledger
// still records a span or identity its pool has handed out.
func TestLedgerExportRoundTrip(t *testing.T) {
	gen := identity.NewGenerator("hmail.test", 42)
	l := NewLedger()
	for i := 0; i < 6; i++ {
		l.AddIdentity(gen.New(identity.PasswordClass(i % 2)))
	}
	control := gen.New(identity.Hard)
	l.AddControl(control)
	when := time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)
	id := l.Take(identity.Hard)
	l.Burn(id, "site00001.test", 1, "news", when, crawler.CodeOKSubmission, false)
	registration := func(status AccountStatus) []byte {
		e := snapshot.NewEncoder()
		appendIdentity(e, id)
		e.String("site00001.test")
		e.Int(1)
		e.String("news")
		e.Time(when)
		e.Uint(uint64(crawler.CodeOKSubmission))
		e.Uint(uint64(status))
		e.Bool(false)
		return e.Bytes()
	}
	if !bytes.Contains(image(l.EncodeSection), registration(StatusOKSubmission)) {
		t.Fatal("image lacks the registration as burned")
	}
	l.NoteEmail(id.Email, true)
	img := image(l.EncodeSection)
	if !bytes.Contains(img, registration(StatusEmailVerified)) || bytes.Contains(img, registration(StatusOKSubmission)) {
		t.Fatal("image does not carry the registration at the verified status")
	}
	if !bytes.Contains(img, image(func(e *snapshot.Encoder) { appendIdentity(e, control) })) {
		t.Fatal("image lacks the control account")
	}
	if !bytes.Equal(image(l.EncodeSection), img) {
		t.Fatal("re-encoding changed bytes")
	}

	// What the pool hands out and nothing burns stays in the unused
	// universe: a span or an explicit identity, once taken, is gone from
	// the pool's segments, so only the spans or the unused set can keep
	// the image from going back to what it was before the pool had it.
	spent := NewLedger()
	spent.SetDeriver(gen.At)
	prev := image(spent.EncodeSection)
	for _, tc := range []struct {
		name string
		add  func()
	}{
		{"span", func() { spent.ExtendPool(identity.Easy, gen.Reserve(identity.Easy, 1), 1) }},
		{"explicit identity", func() { spent.AddIdentity(gen.New(identity.Easy)) }},
	} {
		tc.add()
		if spent.Take(identity.Easy) == nil || spent.PoolSize() != 0 {
			t.Fatalf("the pool did not hand out the %s", tc.name)
		}
		img := image(spent.EncodeSection)
		if bytes.Equal(img, prev) {
			t.Fatalf("a taken %s left the image unchanged", tc.name)
		}
		prev = img
	}
}

// monitorFixture is a monitor with a detection at one of two registered
// sites, an expected and a seen control login, and its dump cursor an
// hour past t0, so events at t0 leave the cursor where it is.
type monitorFixture struct {
	m          *Monitor
	hitA, hitB *identity.Identity // registered at a.test; hitA logged in
	missing    *identity.Identity // registered at b.test, never logged in
	control    *identity.Identity
	unused     *identity.Identity
	w          *ingestWorld
}

func newMonitorFixture(t *testing.T) *monitorFixture {
	w := newIngestWorld()
	g := newGen()
	f := &monitorFixture{w: w, hitA: w.account(t, g.New(identity.Easy)), hitB: w.account(t, g.New(identity.Hard)),
		missing: w.account(t, g.New(identity.Hard)), control: w.account(t, g.New(identity.Hard)), unused: w.account(t, g.New(identity.Easy))}
	l := w.l
	for _, id := range []*identity.Identity{f.hitA, f.hitB, f.missing, f.unused} {
		l.AddIdentity(id)
	}
	l.Burn(f.hitA, "a.test", 1, "news", t0, crawler.CodeOKSubmission, false)
	l.Burn(f.hitB, "a.test", 1, "news", t0, crawler.CodeOKSubmission, false)
	l.Burn(f.missing, "b.test", 2, "shop", t0, crawler.CodeOKSubmission, false)
	l.AddControl(f.control)
	// The dump cursor starts past every login the tests make.
	f.m = NewMonitor(l, t0.Add(24*time.Hour))
	f.m.ExpectControlLogin(f.control.Email)
	f.m.Ingest(w.dumpOf(t, f.control, f.hitA))
	return f
}

// TestMonitorSectionTracksMutations: an untouched monitor re-encodes byte
// for byte, and each single Ingest changes the image through the state it
// touches — the logins predate the dump cursor, so the cursor cannot be
// what changed it.
func TestMonitorSectionTracksMutations(t *testing.T) {
	base := image(newMonitorFixture(t).m.EncodeSection)
	f := newMonitorFixture(t)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(image(f.m.EncodeSection), base) {
			t.Fatalf("encode %d of an untouched monitor differs from an equal monitor's image", i)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(f *monitorFixture)
	}{
		{"Ingest a login at a detected site", func(f *monitorFixture) { f.m.Ingest(f.w.dumpOf(t, f.hitA)) }},
		{"Ingest a second account's login", func(f *monitorFixture) { f.m.Ingest(f.w.dumpOf(t, f.hitB)) }},
		{"Ingest a new site's login", func(f *monitorFixture) { f.m.Ingest(f.w.dumpOf(t, f.missing)) }},
		{"Ingest a control login", func(f *monitorFixture) { f.m.Ingest(f.w.dumpOf(t, f.control)) }},
		{"Ingest an unused account's login", func(f *monitorFixture) { f.m.Ingest(f.w.dumpOf(t, f.unused)) }},
		{"ExpectControlLogin", func(f *monitorFixture) { f.m.ExpectControlLogin(f.unused.Email) }},
	} {
		f := newMonitorFixture(t)
		tc.mutate(f)
		if bytes.Equal(image(f.m.EncodeSection), base) {
			t.Errorf("%s left the monitor image unchanged", tc.name)
		}
	}
}
