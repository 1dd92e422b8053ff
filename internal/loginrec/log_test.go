package loginrec

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tripwire/internal/chunklog"
	"tripwire/internal/snapshot"
)

var at0 = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

// resolved is one record read back through its log's tables.
type resolved struct {
	name string
	at   time.Time
	ip   netip.Addr
	tag  uint8
}

func resolve(l *Log, recs []Record) []resolved {
	out := make([]resolved, len(recs))
	for i := range recs {
		r := &recs[i]
		out[i] = resolved{l.Name(r.Account), r.Time(), r.IP(l.Addrs()), r.Tag}
	}
	return out
}

// records returns every record l holds, oldest first.
func records(l *Log) []Record {
	var out []Record
	v := l.Window(0, l.Len())
	for k := 0; k < v.Parts(); k++ {
		out = append(out, v.Part(k)...)
	}
	return out
}

// TestSealIgnoresInternOrder: ids follow first use, which a parallel
// segment hands out in goroutine order. Two logs that meet the same
// accounts in opposite orders — some only interned, as the stuffer interns
// an account that draws before it logs in — then log one segment from
// concurrent goroutines, some of them to accounts they intern there, must
// seal to the same records. Both owners' keys are covered: the provider
// interns a local part under its domain, the stuffer a whole address.
func TestSealIgnoresInternOrder(t *testing.T) {
	const accounts = 12
	for _, owner := range []struct {
		name, suffix string
		key          func(i int) string
	}{
		{"provider", "@bigmail.test", func(i int) string { return fmt.Sprintf("acct%02d", i) }},
		{"stuffer", "", func(i int) string { return fmt.Sprintf("acct%02d@bigmail.test", i) }},
	} {
		ip := func(i int) netip.Addr {
			if i%3 == 0 { // some addresses go to the side table
				return netip.AddrFrom16([16]byte{0x20, 0x01, 15: byte(i)})
			}
			return netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})
		}
		build := func(reverse bool) *Log {
			var l Log
			order := make([]int, accounts)
			for i := range order {
				order[i] = i
			}
			if reverse {
				slices.Reverse(order)
			}
			l.Mark()
			for _, i := range order {
				l.Append(l.Intern(owner.key(i), owner.suffix), at0, ip(i), 0)
				l.Intern(owner.key(accounts+i%4), owner.suffix)
			}
			l.Seal()
			// Each goroutine logs its own account twice, and a login that
			// several goroutines log alike to an account it may be the
			// first to intern.
			var mu sync.Mutex
			var wg sync.WaitGroup
			l.Mark()
			for _, i := range order {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					mu.Lock()
					defer mu.Unlock()
					own := l.Intern(owner.key(i), owner.suffix)
					l.Append(own, at0.Add(time.Hour), ip(i), 1)
					l.Append(l.Intern(owner.key(2*accounts+i%4), owner.suffix), at0.Add(time.Hour), ip(2), 2)
					l.Append(own, at0.Add(time.Hour), ip(i+1), 3)
				}(i)
			}
			wg.Wait()
			l.Seal()
			return &l
		}
		a, b := build(false), build(true)
		ra, rb := resolve(a, records(a)), resolve(b, records(b))
		if len(ra) != 4*accounts || !slices.Equal(ra, rb) {
			t.Fatalf("%s: logs that interned accounts in opposite orders sealed different records", owner.name)
		}
		if name := ra[0].name; name != owner.key(0)+owner.suffix {
			t.Fatalf("%s: first sealed login is to %q", owner.name, name)
		}
	}
}

// sealMatchesStableSort marks l, appends the segment that logs to the
// keys in order (interning each at its first use), seals it, and requires
// the log to equal a flat copy of it whose segment was stably sorted by
// account name. Each login's address and tag record its place in the
// segment, so stability decides the order among an account's logins.
func sealMatchesStableSort(t *testing.T, l *Log, keys []string) {
	t.Helper()
	l.Mark()
	at := at0.Add(time.Duration(l.Len()) * time.Minute)
	for i, key := range keys {
		l.Append(l.Intern(key, "@x.test"), at, netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), uint8(i))
	}
	want := records(l)
	slices.SortStableFunc(want[len(want)-len(keys):], func(a, b Record) int {
		return strings.Compare(l.Name(a.Account), l.Name(b.Account))
	})
	l.Seal()
	if got := records(l); !slices.Equal(got, want) {
		t.Fatalf("sealed log differs from a stable sort by name of a flat copy\n got %v\nwant %v", resolve(l, got), resolve(l, want))
	}
}

// TestSealAcrossChunks seals segments that straddle a chunk boundary, span
// a whole chunk or start on one, and segments too short to reorder, twice
// over so the second seal reuses the first one's buffers. Accounts repeat
// within a segment, and some are first interned inside it, so their ids
// do not follow their names.
func TestSealAcrossChunks(t *testing.T) {
	const c = chunklog.ChunkSize
	for _, tc := range []struct{ before, seg int }{
		{c - 5, 12},
		{c - 1, 2 * c},
		{2 * c, c/2 + 1},
		{7, 1},
		{7, 0},
	} {
		t.Run(fmt.Sprintf("before=%d/seg=%d", tc.before, tc.seg), func(t *testing.T) {
			var l Log
			for i := 0; i < tc.before; i++ {
				l.Append(l.Intern(fmt.Sprintf("k%d", i%9), "@x.test"), at0, netip.AddrFrom4([4]byte{10, 0, 0, 1}), 0)
			}
			for round := 0; round < 2; round++ {
				keys := make([]string, tc.seg)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%d", (i*7919)%13+round*5)
				}
				sealMatchesStableSort(t, &l, keys)
			}
		})
	}
}

// FuzzSeal: whatever accounts a segment logs to, in whatever order and
// after however long a sealed prefix, Seal orders it as a stable sort by
// name of a flat copy does. Each byte of picks names an account; the
// prefix interns the accounts its bytes name, so the segment mixes those
// with accounts it interns itself.
func FuzzSeal(f *testing.F) {
	f.Add(uint16(3), []byte{5, 1, 5, 200, 1, 17, 17, 0})
	f.Add(uint16(chunklog.ChunkSize-2), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint16(0), []byte{255, 255, 16, 1})
	f.Fuzz(func(t *testing.T, before uint16, picks []byte) {
		var l Log
		for i := 0; i < int(before)%(3*chunklog.ChunkSize); i++ {
			l.Append(l.Intern(fmt.Sprintf("%x", i%64), "@x.test"), at0, netip.AddrFrom4([4]byte{10, 0, 0, 1}), 0)
		}
		keys := make([]string, len(picks))
		for i, b := range picks {
			keys[i] = fmt.Sprintf("%x", b)
		}
		sealMatchesStableSort(t, &l, keys)
		sealMatchesStableSort(t, &l, keys[len(keys)/2:])
	})
}

// TestLogKeepsTimeOrder: a login older than the last one appended panics,
// and DropFront refuses to move an open segment's mark.
func TestLogKeepsTimeOrder(t *testing.T) {
	var l Log
	id := l.Intern("a", "@x.test")
	l.Append(id, at0.Add(time.Hour), netip.AddrFrom4([4]byte{10, 0, 0, 1}), 0)
	l.Append(id, at0.Add(time.Hour), netip.AddrFrom4([4]byte{10, 0, 0, 1}), 0)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("a backwards append", func() { l.Append(id, at0, netip.Addr{}, 0) })
	mustPanic("a zero-time append after a dated one", func() { l.Append(id, time.Time{}, netip.Addr{}, 0) })
	l.Mark()
	mustPanic("DropFront inside a segment", func() { l.DropFront(1) })
	l.Seal()
	l.DropFront(1)
	if l.Len() != 1 {
		t.Fatalf("%d records after dropping one of two", l.Len())
	}
}

// FuzzSegment: a cold segment's payload reads back as the records it was
// written from, every truncation of it is an error, and no payload — a
// copy with one bit flipped, or arbitrary bytes — panics the decoder or
// decodes to a record its log's tables cannot resolve.
func FuzzSegment(f *testing.F) {
	f.Add(int64(1433160000000000007), false, []byte{203, 0, 113, 9}, uint8(1), uint16(3), []byte{})
	f.Add(int64(0), true, netip.MustParseAddr("2001:db8::1").AsSlice(), uint8(0), uint16(40), []byte{1, 0, 0, 0, 0, 0})
	f.Add(int64(-1), false, []byte{}, uint8(255), uint16(999), []byte{2, 9, 1, 2, 2, 0, 9, 1, 2, 2, 0})
	f.Fuzz(func(t *testing.T, nanos int64, zero bool, ip []byte, tag uint8, flip uint16, junk []byte) {
		at := time.Unix(0, nanos).UTC()
		if zero {
			at = time.Time{}
		}
		addr, _ := netip.AddrFromSlice(ip)
		var l Log
		for i, key := range []string{"b", "a", "b"} {
			l.Append(l.Intern(key, "@x.test"), at, addr, tag+uint8(i))
		}
		l.Append(l.Intern("c", "@x.test"), at, netip.AddrFrom4([4]byte{10, 0, 0, 1}), tag)
		want := records(&l)
		e := snapshot.NewEncoder()
		EncodeSegment(e, l.Window(0, l.Len()))
		data := e.Bytes()
		names, addrs := len(l.Names()), len(l.Addrs())
		got, err := DecodeSegment(snapshot.NewDecoder(data), names, addrs)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("payload read back %v (%v), want %v", got, err, want)
		}
		for n := 0; n < len(data); n++ {
			if _, err := DecodeSegment(snapshot.NewDecoder(data[:n]), names, addrs); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", n, len(data))
			}
		}
		flipped := slices.Clone(data)
		flipped[int(flip/8)%len(flipped)] ^= 1 << (flip % 8)
		for _, payload := range [][]byte{flipped, junk} {
			recs, err := DecodeSegment(snapshot.NewDecoder(payload), names, addrs)
			if err != nil {
				if !errors.Is(err, snapshot.ErrCorrupt) {
					t.Fatalf("decode error %v does not wrap snapshot.ErrCorrupt", err)
				}
				continue
			}
			resolve(&l, recs) // panics on an id or index past the tables
		}
	})
}
