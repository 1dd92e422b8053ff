package emailprovider

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"tripwire/internal/chunklog"
)

var ringEpoch = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

func ringEvent(i int) LoginEvent {
	return LoginEvent{
		Account: fmt.Sprintf("acct%03d@honey.test", i%7),
		Time:    ringEpoch.Add(time.Duration(i) * time.Minute),
		IP:      netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		Method:  "IMAP",
	}
}

// naiveDump is the reference the binary-search path must agree with.
func naiveDump(events []LoginEvent, since, cutoff, now time.Time) []LoginEvent {
	var out []LoginEvent
	for _, ev := range events {
		if inWindow(ev.Time, since, cutoff, now) {
			out = append(out, ev)
		}
	}
	return out
}

func sameEvents(t *testing.T, label string, got, want []LoginEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d events, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestLoginRingDumpMatchesNaiveScan(t *testing.T) {
	var r loginLog
	var all []LoginEvent
	for i := 0; i < 500; i++ {
		ev := ringEvent(i)
		r.append(ev)
		all = append(all, ev)
	}
	now := ringEpoch.Add(600 * time.Minute)
	for _, tc := range []struct {
		name          string
		since, cutoff time.Time
	}{
		{"full", ringEpoch.Add(-time.Hour), ringEpoch.Add(-time.Hour)},
		{"recent", ringEpoch.Add(400 * time.Minute), ringEpoch},
		{"cutoff-trims-head", ringEpoch.Add(-time.Hour), ringEpoch.Add(100 * time.Minute)},
		{"empty-window", now, ringEpoch},
		{"since-after-all", ringEpoch.Add(9999 * time.Minute), ringEpoch},
		{"boundary-exclusive", ringEpoch.Add(250 * time.Minute), ringEpoch},
	} {
		sameEvents(t, tc.name, r.dumpSince(tc.since, tc.cutoff, now), naiveDump(all, tc.since, tc.cutoff, now))
	}
	// now in the middle of the log bounds the upper end.
	mid := ringEpoch.Add(300 * time.Minute)
	sameEvents(t, "now-bounded", r.dumpSince(ringEpoch, ringEpoch, mid), naiveDump(all, ringEpoch, ringEpoch, mid))
}

// TestLoginLogChunkBoundaries drives the log through purges, spills and
// dumps whose cut points fall inside chunks and exactly on their
// boundaries, and checks every read path against a naive scan of the
// events that should remain.
func TestLoginLogChunkBoundaries(t *testing.T) {
	const c = chunklog.ChunkSize
	var r loginLog
	var all []LoginEvent // the events that should be resident, oldest first
	next := 0
	appendN := func(n int) {
		for ; n > 0; n-- {
			ev := ringEvent(next)
			next++
			r.append(ev)
			all = append(all, ev)
		}
	}
	minute := func(i int) time.Time { return ringEpoch.Add(time.Duration(i) * time.Minute) }
	purgeBefore := func(i int) {
		t.Helper()
		cutoff := minute(i)
		want := 0
		for want < len(all) && all[want].Time.Before(cutoff) {
			want++
		}
		all = all[want:]
		if got := r.purgeExpired(cutoff); got != want {
			t.Fatalf("purgeExpired(minute %d) dropped %d, want %d", i, got, want)
		}
	}
	check := func(label string) {
		t.Helper()
		sameEvents(t, label+"/all", r.all(), all)
		if r.size() != len(all) {
			t.Fatalf("%s: size = %d, want %d", label, r.size(), len(all))
		}
		now := minute(next)
		// Windows whose edges sit just before, on and just after chunk
		// boundaries of the event numbering, plus the whole log.
		edges := []int{-60, c - 1, c, c + 1, 2*c - 1, 2 * c, 3*c + 7, next - 1, next}
		for _, since := range edges {
			for _, cut := range edges {
				got := r.dumpSince(minute(since), minute(cut), now)
				sameEvents(t, fmt.Sprintf("%s/dump(since %d, cutoff %d)", label, since, cut), got, naiveDump(all, minute(since), minute(cut), now))
			}
		}
	}

	appendN(3*c + 10) // four chunks, the last partly filled
	check("filled")
	purgeBefore(c - 3) // inside the first chunk
	check("purge-inside-chunk")
	purgeBefore(c + 2) // across the first boundary
	check("purge-across-boundary")
	purgeBefore(2 * c) // exactly onto a boundary
	check("purge-onto-boundary")

	// A spill detaches all but budget/2 events: with c+10 resident and a
	// budget of c-2, the cut falls inside a chunk.
	budget := c - 2
	spilled := r.takeSpill(budget)
	sameEvents(t, "spilled-prefix", spilled, all[:len(all)-budget/2])
	all = all[len(all)-budget/2:]
	check("after-spill")
	appendN(c + 1) // the tail crosses two more boundaries
	check("refilled")
	if got := r.takeSpill(len(all)); got != nil {
		t.Fatalf("takeSpill at exactly the budget detached %d events", len(got))
	}

	purgeBefore(next + 60) // drop everything
	if r.size() != 0 {
		t.Fatalf("drained log holds %d events", r.size())
	}
	appendN(5)
	check("post-drain")
}

// TestLoginLogSealAcrossChunks seals a segment that starts in one chunk
// and ends in the next; the log must end up exactly as a stable sort of a
// flat copy of the segment by (Time, Account).
func TestLoginLogSealAcrossChunks(t *testing.T) {
	const c = chunklog.ChunkSize
	var r loginLog
	var flat []LoginEvent
	for i := 0; i < c-5; i++ {
		ev := ringEvent(i)
		r.append(ev)
		flat = append(flat, ev)
	}
	r.mark()
	frozen := ringEpoch.Add(c * time.Minute)
	for i := 0; i < 40; i++ {
		// Accounts repeat, so stability decides the order among equals;
		// the IP records the append order.
		ev := LoginEvent{
			Account: fmt.Sprintf("acct%02d@honey.test", (i*11)%9),
			Time:    frozen,
			IP:      netip.AddrFrom4([4]byte{10, 9, 0, byte(i)}),
			Method:  "IMAP",
		}
		r.append(ev)
		flat = append(flat, ev)
	}
	r.seal()
	slices.SortStableFunc(flat[c-5:], func(a, b LoginEvent) int {
		if d := a.Time.Compare(b.Time); d != 0 {
			return d
		}
		return strings.Compare(a.Account, b.Account)
	})
	sameEvents(t, "sealed", r.all(), flat)
}

// TestLoginRingUnsortedFallback feeds out-of-order events and checks the
// log degrades to correct linear scans, then recovers the sorted fast path
// once a purge compacts the disorder away.
func TestLoginRingUnsortedFallback(t *testing.T) {
	var r loginLog
	events := []LoginEvent{ringEvent(5), ringEvent(1), ringEvent(9), ringEvent(3)}
	for _, ev := range events {
		r.append(ev)
	}
	if !r.unsorted {
		t.Fatal("out-of-order appends did not flip the unsorted flag")
	}
	now := ringEpoch.Add(time.Hour)
	sameEvents(t, "unsorted-dump", r.dumpSince(ringEpoch, ringEpoch, now), naiveDump(events, ringEpoch, ringEpoch, now))

	// Purging everything before minute 4 leaves {5, 9}: sorted again.
	if got := r.purgeExpired(ringEpoch.Add(4 * time.Minute)); got != 2 {
		t.Fatalf("purged %d, want 2", got)
	}
	if r.unsorted {
		t.Fatal("purge did not restore the sorted fast path")
	}
	sameEvents(t, "recovered", r.all(), []LoginEvent{ringEvent(5), ringEvent(9)})
}

func TestProviderDumpUsesRing(t *testing.T) {
	p := New("honey.test")
	clock := ringEpoch
	p.Now = func() time.Time { return clock }
	p.Retention = 24 * time.Hour
	ip := netip.MustParseAddr("203.0.113.9")
	for i := 0; i < 40; i++ {
		email := fmt.Sprintf("acct%02d@honey.test", i)
		if err := p.CreateAccount(email, "A B", "pw"); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(time.Hour)
		if err := p.WebLogin(email, "pw", ip); err != nil {
			t.Fatal(err)
		}
	}
	// Retention hides everything older than 24h from dumps: logins landed
	// at hours 1..40, the cutoff sits at hour 16 (inclusive), so hours
	// 16..40 — 25 events — remain visible.
	got := p.DumpSince(time.Time{})
	if len(got) != 25 {
		t.Fatalf("DumpSince returned %d events, want 25 inside retention", len(got))
	}
	if purged := p.PurgeExpired(); purged != 15 {
		t.Fatalf("PurgeExpired dropped %d events, want the 15 outside retention", purged)
	}
	if n := len(p.AllLogins()); n != 25 {
		t.Fatalf("AllLogins after purge = %d, want 25", n)
	}
	// Incremental dump from the midpoint of the retained window; since is
	// exclusive, so the tail starts at the next event.
	mid := got[11].Time
	tail := p.DumpSince(mid)
	if len(tail) != 13 || tail[0].Time != got[12].Time {
		t.Fatalf("incremental dump wrong: %d events", len(tail))
	}
}

// BenchmarkDumpSince measures an incremental dump of the most recent slice
// of a large retained log — the provider's steady-state query shape. The
// log's binary search makes this O(log n + matches); a linear scan would
// walk all N events per dump.
func BenchmarkDumpSince(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("log=%d", n), func(b *testing.B) {
			var r loginLog
			for i := 0; i < n; i++ {
				r.append(ringEvent(i))
			}
			now := ringEpoch.Add(time.Duration(n) * time.Minute)
			since := ringEpoch.Add(time.Duration(n-64) * time.Minute)
			cutoff := ringEpoch.Add(-time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := r.dumpSince(since, cutoff, now); len(out) != 63 {
					b.Fatalf("got %d events, want 63", len(out))
				}
			}
		})
	}
}
