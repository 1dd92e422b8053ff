package emailprovider

import (
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"tripwire/internal/chunklog"
	"tripwire/internal/loginrec"
	"tripwire/internal/snapshot"
)

// loginLog stores successful logins in time order in a chunked log
// (chunklog.Log) of 24-byte records with no pointers (loginrec.Record), so
// a login never moves once appended, growth copies nothing and the garbage
// collector never scans the log. A record's account id indexes names,
// which holds each account's address once, built at its first login; its
// method tag indexes methodNames. The simulation's virtual clock only
// moves forward, so appends arrive in nondecreasing time order and every
// dump reduces to two binary searches over a contiguous window — O(log n)
// — that the dump then reads in place. Retention purges and spills drop
// whole prefixes, and the chunks they empty are released. If a caller ever
// appends out of order the log flips to a linear-scan fallback rather than
// returning wrong windows.
type loginLog struct {
	mu     sync.Mutex
	domain string
	evs    chunklog.Log[loginrec.Record]
	// names[id] is the address of account id; ids maps its local part to
	// id. Ids follow first-login order, which inside a parallel segment is
	// goroutine order, so nothing orders or encodes by id.
	names []string
	ids   map[string]uint32
	addrs loginrec.Addrs
	// unsorted is set once an append went back in time.
	unsorted bool
	marked   int // index saved by mark() for seal()
	// inSegment is true between mark and seal. While set, takeSpill
	// refuses to detach a prefix: spilling would shift the indexes and
	// invalidate the marked one, and mid-segment content is not yet
	// deterministically ordered.
	inSegment bool
}

// append records a successful login to local@domain at t from ip by
// method, and returns the account's address.
func (r *loginLog) append(local string, t time.Time, ip netip.Addr, method uint8) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.ids[local]
	if !ok {
		if r.ids == nil {
			r.ids = make(map[string]uint32)
		}
		account := local + "@" + r.domain
		id = uint32(len(r.names))
		r.names = append(r.names, account)
		r.ids[account[:len(local)]] = id
	}
	if n := r.evs.Len(); n > 0 && t.Before(r.evs.At(n-1).Time()) {
		r.unsorted = true
	}
	r.evs.Append(loginrec.Record{Login: r.addrs.Pack(t, ip, method), Account: id})
	return r.names[id]
}

// windowLocked returns a dump reading records [lo, hi) in place. Caller
// holds mu.
func (r *loginLog) windowLocked(lo, hi int) Dump {
	return Dump{recs: r.evs.Window(lo, hi), log: r, names: r.names, addrs: r.addrs.List()}
}

// dumpSince returns the logins with Time in (since, now] that are not
// older than cutoff, oldest first.
func (r *loginLog) dumpSince(since, cutoff, now time.Time) Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.evs.Len()
	if r.unsorted {
		var out []LoginEvent
		all := r.windowLocked(0, n)
		all.Each(func(ev LoginEvent, _ int) {
			if inWindow(ev.Time, since, cutoff, now) {
				out = append(out, ev)
			}
		})
		return Dump{evs: out}
	}
	// Both bounds are monotone in event time, so the matching events form
	// one contiguous run: [lo, hi).
	lo := sort.Search(n, func(i int) bool {
		t := r.evs.At(i).Time()
		return t.After(since) && !t.Before(cutoff)
	})
	hi := lo + sort.Search(n-lo, func(i int) bool {
		return r.evs.At(lo + i).Time().After(now)
	})
	return r.windowLocked(lo, hi)
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
			return !r.evs.At(i).Time().Before(cutoff)
		})
		r.evs.DropFront(drop)
		return drop
	}
	// Out-of-order log: rebuild it from the kept events and recheck
	// orderedness, so a log that drained its disordered tail regains the
	// binary-search path.
	var kept chunklog.Log[loginrec.Record]
	r.unsorted = false
	for i := 0; i < n; i++ {
		rec := r.evs.At(i)
		t := rec.Time()
		if t.Before(cutoff) {
			continue
		}
		if k := kept.Len(); k > 0 && t.Before(kept.At(k-1).Time()) {
			r.unsorted = true
		}
		kept.Append(*rec)
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
// across chunk boundaries when the block spans one. It compares account
// addresses, never ids, which the segment handed out in goroutine order.
// Two same-epoch logins to the same account come from the same conflict
// partition and are therefore already in deterministic order, which the
// stable sort preserves — making the whole log independent of how the
// segment's partitions interleaved.
func (r *loginLog) seal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inSegment = false
	r.evs.SortStableFrom(r.marked, func(a, b *loginrec.Record) int {
		if c := a.Time().Compare(b.Time()); c != 0 {
			return c
		}
		return strings.Compare(r.names[a.Account], r.names[b.Account])
	})
}

// takeSpill detaches the oldest prefix when the log holds more than
// budget events, leaving budget/2 resident (so spills happen in batches
// rather than on every append), and returns it encoded as a cold
// segment's payload, with the segment's span and count; count is 0 when
// nothing was detached. It refuses mid-segment (the marked index must
// stay valid and segment content is not yet sealed into deterministic
// order) and on the unsorted fallback path (a disordered prefix cannot be
// binary-searched once cold). The prefix is encoded before it is dropped,
// since dropping may zero its records; dropping releases the chunks it
// emptied.
func (r *loginLog) takeSpill(budget int) (payload []byte, seg coldSegment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.evs.Len()
	if budget <= 0 || r.inSegment || r.unsorted || n <= budget {
		return nil, coldSegment{}
	}
	k := n - budget/2
	e := snapshot.NewEncoder()
	r.windowLocked(0, k).encode(e)
	seg = coldSegment{min: r.evs.At(0).Time(), max: r.evs.At(k - 1).Time(), count: k}
	r.evs.DropFront(k)
	return e.Bytes(), seg
}

// all returns a dump of every resident event, oldest first.
func (r *loginLog) all() Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.windowLocked(0, r.evs.Len())
}

// size returns the number of stored events.
func (r *loginLog) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evs.Len()
}
