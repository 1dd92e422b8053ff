package emailprovider

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// spillFixture builds two providers fed an identical login stream: ref
// keeps everything resident, spilled runs with the given budget. It
// returns both plus the distinct event times, oldest first.
func spillFixture(t *testing.T, budget, events int) (ref, spilled *Provider, times []time.Time) {
	t.Helper()
	build := func(dir string) *Provider {
		p := New("hmail.test")
		if dir != "" {
			p.SpillLoginLog(dir, budget)
		}
		for i := 0; i < 8; i++ {
			if err := p.CreateAccount(fmt.Sprintf("acct%d@hmail.test", i), "A B", "Password1"); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	ref = build("")
	spilled = build(t.TempDir())
	ip := netip.MustParseAddr("198.51.100.7")
	now := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < events; i++ {
		// Bursts of equal timestamps so segment seams can land inside a
		// same-time run.
		if i%3 == 0 {
			now = now.Add(time.Hour)
		}
		times = append(times, now)
		for _, p := range []*Provider{ref, spilled} {
			p.Now = func() time.Time { return now }
			if err := p.WebLogin(fmt.Sprintf("acct%d@hmail.test", i%8), "Password1", ip); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ref, spilled, times
}

// TestDumpSinceSpillContract: with thresholds forcing 0, 1, and many cold
// segments, DumpSince over a sweep of windows — including every segment
// seam — is identical to the all-resident ring.
func TestDumpSinceSpillContract(t *testing.T) {
	const events = 120
	cases := []struct {
		name         string
		budget       int
		wantSegments string // "zero", "one", "many"
	}{
		{"no-spill", events + 1, "zero"},
		{"one-segment", 100, "one"},
		{"many-segments", 10, "many"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, sp, times := spillFixture(t, tc.budget, events)
			segs := sp.SpilledSegments()
			switch tc.wantSegments {
			case "zero":
				if segs != 0 {
					t.Fatalf("%d segments, want 0", segs)
				}
			case "one":
				if segs != 1 {
					t.Fatalf("%d segments, want 1", segs)
				}
			case "many":
				if segs < 3 {
					t.Fatalf("%d segments, want many", segs)
				}
			}
			if err := sp.SpillErr(); err != nil {
				t.Fatal(err)
			}
			if tc.budget <= events && sp.ResidentLogSize() > tc.budget {
				t.Fatalf("resident size %d exceeds budget %d", sp.ResidentLogSize(), tc.budget)
			}

			// Full-log identity first.
			if !reflect.DeepEqual(sp.AllLogins(), ref.AllLogins()) {
				t.Fatal("AllLogins differs from all-resident reference")
			}
			// Sweep windows anchored at every distinct event time — these
			// include every segment seam — plus off-seam probes.
			anchors := []time.Time{{}, times[0].Add(-time.Minute)}
			for _, tm := range times {
				anchors = append(anchors, tm, tm.Add(-time.Nanosecond), tm.Add(time.Nanosecond))
			}
			for _, since := range anchors {
				got := sp.DumpSince(since).Events()
				want := ref.DumpSince(since).Events()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("DumpSince(%v): %d events, want %d", since, len(got), len(want))
				}
			}
		})
	}
}

// TestSpillPurgeDropsWholeSegments: retention expiry unlinks cold
// segments and the two tiers agree with the reference afterwards.
func TestSpillPurgeDropsWholeSegments(t *testing.T) {
	ref, sp, times := spillFixture(t, 10, 120)
	last := times[len(times)-1]
	// Retain only the newest quarter of the timeline.
	cut := last.Sub(times[len(times)/4*3])
	for _, p := range []*Provider{ref, sp} {
		p.Retention = cut
		p.Now = func() time.Time { return last }
	}
	before := sp.SpilledSegments()
	refPurged, spPurged := ref.PurgeExpired(), sp.PurgeExpired()
	if sp.SpilledSegments() >= before {
		t.Fatalf("purge dropped no segments (%d -> %d)", before, sp.SpilledSegments())
	}
	// The spilled provider may retain slightly more (a straddling segment
	// is kept whole, its expired prefix masked at read time), never less.
	if spPurged > refPurged {
		t.Fatalf("spilled purge dropped %d > reference %d", spPurged, refPurged)
	}
	if !reflect.DeepEqual(sp.DumpSince(time.Time{}).Events(), ref.DumpSince(time.Time{}).Events()) {
		t.Fatal("post-purge DumpSince differs from reference")
	}
	// A straddling segment keeps its file, but AllLogins must mask the
	// expired prefix exactly as the ring's physical purge did.
	if !reflect.DeepEqual(sp.AllLogins(), ref.AllLogins()) {
		t.Fatal("post-purge AllLogins differs from reference")
	}
	if err := sp.SpillErr(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillDeferredInsideSegment: between BeginSegment and EndSegment the
// ring must not move (the sequencer's marked index stays valid); the
// spill happens at EndSegment instead.
func TestSpillDeferredInsideSegment(t *testing.T) {
	p := New("hmail.test")
	p.SpillLoginLog(t.TempDir(), 4)
	if err := p.CreateAccount("acct@hmail.test", "A B", "Password1"); err != nil {
		t.Fatal(err)
	}
	now := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	p.Now = func() time.Time { return now }
	ip := netip.MustParseAddr("198.51.100.7")
	p.BeginSegment()
	for i := 0; i < 10; i++ {
		now = now.Add(time.Minute)
		if err := p.WebLogin("acct@hmail.test", "Password1", ip); err != nil {
			t.Fatal(err)
		}
	}
	if p.SpilledSegments() != 0 {
		t.Fatal("spilled inside an open segment")
	}
	p.EndSegment()
	if p.SpilledSegments() == 0 {
		t.Fatal("EndSegment did not spill an over-budget ring")
	}
	if got := len(p.AllLogins()); got != 10 {
		t.Fatalf("AllLogins = %d events, want 10", got)
	}
}
