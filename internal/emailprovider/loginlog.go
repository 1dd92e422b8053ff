package emailprovider

import (
	"sort"
	"strings"
	"sync"
	"time"

	"tripwire/internal/chunklog"
)

// loginLog stores successful-login events in time order in a chunked log
// (chunklog.Log), so an event never moves once appended and growth copies
// nothing. The simulation's virtual clock only moves forward, so appends
// arrive in nondecreasing time order and every dump reduces to two binary
// searches over a contiguous window — O(log n + matches) instead of a scan
// of the whole log. Retention purges and spills drop whole prefixes, and
// the chunks they empty are released. If a caller ever appends out of
// order the log flips to a linear-scan fallback rather than returning
// wrong windows.
type loginLog struct {
	mu       sync.Mutex
	evs      chunklog.Log[LoginEvent]
	unsorted bool
	marked   int // index saved by mark() for seal()
	// inSegment is true between mark and seal. While set, takeSpill
	// refuses to detach a prefix: spilling would shift the indexes and
	// invalidate the marked one, and mid-segment content is not yet
	// deterministically ordered.
	inSegment bool
}

func (r *loginLog) append(ev LoginEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.evs.Len(); n > 0 && ev.Time.Before(r.evs.At(n-1).Time) {
		r.unsorted = true
	}
	r.evs.Append(ev)
}

// dumpSince returns the events with Time in (since, now] that are not older
// than cutoff, oldest first.
func (r *loginLog) dumpSince(since, cutoff, now time.Time) []LoginEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.evs.Len()
	if r.unsorted {
		var out []LoginEvent
		for i := 0; i < n; i++ {
			if ev := r.evs.At(i); inWindow(ev.Time, since, cutoff, now) {
				out = append(out, *ev)
			}
		}
		return out
	}
	// Both bounds are monotone in event time, so the matching events form
	// one contiguous run: [lo, hi).
	lo := sort.Search(n, func(i int) bool {
		t := r.evs.At(i).Time
		return t.After(since) && !t.Before(cutoff)
	})
	hi := lo + sort.Search(n-lo, func(i int) bool {
		return r.evs.At(lo + i).Time.After(now)
	})
	if lo >= hi {
		return nil
	}
	return r.evs.AppendTo(nil, lo, hi)
}

func inWindow(t, since, cutoff, now time.Time) bool {
	return t.After(since) && !t.Before(cutoff) && !t.After(now)
}

// purgeExpired discards events older than cutoff and reports how many were
// dropped. In the sorted fast path this drops a prefix.
func (r *loginLog) purgeExpired(cutoff time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.evs.Len()
	if !r.unsorted {
		drop := sort.Search(n, func(i int) bool {
			return !r.evs.At(i).Time.Before(cutoff)
		})
		r.evs.DropFront(drop)
		return drop
	}
	// Out-of-order log: rebuild it from the kept events and recheck
	// orderedness, so a log that drained its disordered tail regains the
	// binary-search path.
	var kept chunklog.Log[LoginEvent]
	r.unsorted = false
	for i := 0; i < n; i++ {
		ev := r.evs.At(i)
		if ev.Time.Before(cutoff) {
			continue
		}
		if k := kept.Len(); k > 0 && ev.Time.Before(kept.At(k-1).Time) {
			r.unsorted = true
		}
		kept.Append(*ev)
	}
	r.evs = kept
	return n - kept.Len()
}

// mark remembers the current length; seal later re-sequences everything
// appended after it. The pair brackets one parallel timeline segment
// (simclock.Sequencer): within a segment the clock is frozen, so every
// appended event carries the same timestamp and cross-account append order
// is an accident of goroutine interleaving. seal erases that accident. No
// purge can run between mark and seal (dumps are exclusive events), so the
// index stays valid.
func (r *loginLog) mark() {
	r.mu.Lock()
	r.marked = r.evs.Len()
	r.inSegment = true
	r.mu.Unlock()
}

// seal stably sorts the block appended since mark by (Time, Account),
// across chunk boundaries when the block spans one. Two same-epoch logins
// to the same account come from the same conflict partition and are
// therefore already in deterministic order, which the stable sort
// preserves — making the whole log independent of how the segment's
// partitions interleaved.
func (r *loginLog) seal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inSegment = false
	r.evs.SortStableFrom(r.marked, func(a, b *LoginEvent) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		return strings.Compare(a.Account, b.Account)
	})
}

// takeSpill detaches and returns the oldest prefix when the log holds
// more than budget events, leaving budget/2 resident (so spills happen in
// batches rather than on every append). It refuses mid-segment (the
// marked index must stay valid and segment content is not yet sealed into
// deterministic order) and on the unsorted fallback path (a disordered
// prefix cannot be binary-searched once cold). Dropping the prefix
// releases the chunks it emptied.
func (r *loginLog) takeSpill(budget int) []LoginEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.evs.Len()
	if budget <= 0 || r.inSegment || r.unsorted || n <= budget {
		return nil
	}
	k := n - budget/2
	out := r.evs.AppendTo(nil, 0, k)
	r.evs.DropFront(k)
	return out
}

// all returns every stored event, oldest first.
func (r *loginLog) all() []LoginEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.evs.Len()
	return r.evs.AppendTo(make([]LoginEvent, 0, n), 0, n)
}

// size returns the number of stored events.
func (r *loginLog) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evs.Len()
}
