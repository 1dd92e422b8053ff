package loginrec

import (
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// pointerFields returns the path of every field in t whose values hold a
// pointer the garbage collector would have to scan.
func pointerFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	case reflect.Array:
		return pointerFields(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return nil
	default: // pointers, strings, slices, maps, chans, funcs, interfaces
		return []string{path + " (" + t.String() + ")"}
	}
}

// TestLoginRecordsHoldNoPointers walks the three login record types — the
// provider's login log and the stuffer's attempt log store Record, the
// monitor's detections store Login — and fails on any field that holds a
// pointer, so no chunk of them is ever scanned by the garbage collector.
func TestLoginRecordsHoldNoPointers(t *testing.T) {
	for _, tc := range []struct {
		owner string
		v     any
		size  uintptr
	}{
		{"provider login log", Record{}, 24},
		{"stuffer attempt log", Record{}, 24},
		{"monitor detection", Login{}, 16},
	} {
		typ := reflect.TypeOf(tc.v)
		if ptrs := pointerFields(typ, typ.Name()); len(ptrs) > 0 {
			t.Errorf("%s record holds pointers: %v", tc.owner, ptrs)
		}
		if typ.Size() > tc.size {
			t.Errorf("%s record is %d bytes, want at most %d", tc.owner, typ.Size(), tc.size)
		}
	}
	// The walker itself must see a pointer where there is one.
	if len(pointerFields(reflect.TypeOf(struct {
		A [2]struct{ S string }
	}{}), "probe")) == 0 {
		t.Fatal("pointerFields missed a string inside an array of structs")
	}
}

// TestPackRoundTrip packs every kind of address and the zero time, and
// requires each login to read back exactly as packed, with the side table
// holding each address that is not plain IPv4 once.
func TestPackRoundTrip(t *testing.T) {
	at := time.Date(2015, 6, 1, 12, 0, 0, 7, time.UTC)
	ips := []netip.Addr{
		netip.MustParseAddr("203.0.113.9"),
		netip.MustParseAddr("::ffff:203.0.113.9"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("fe80::1%eth0"),
		{},
	}
	var a Addrs
	var packed []Login
	for i, ip := range ips {
		for _, tm := range []time.Time{at, {}} {
			packed = append(packed, a.Pack(tm, ip, uint8(i)))
		}
	}
	snapshot := a.List()
	a.Pack(at, netip.MustParseAddr("2001:db8::2"), 0) // after the snapshot
	for i, l := range packed {
		ip, tm := ips[i/2], []time.Time{at, {}}[i%2]
		if got := l.IP(snapshot); got != ip {
			t.Errorf("login %d: IP %v, want %v", i, got, ip)
		}
		if got := l.Time(); got != tm {
			t.Errorf("login %d: time %v, want %v", i, got, tm)
		}
		if l.Tag != uint8(i/2) {
			t.Errorf("login %d: tag %d", i, l.Tag)
		}
	}
	if len(snapshot) != 4 || len(a.List()) != 5 {
		t.Fatalf("side table holds %d then %d addresses, want 4 then 5", len(snapshot), len(a.List()))
	}
	c := a.Clone()
	if l := c.Pack(at, ips[2], 0); l.IP(c.List()) != ips[2] || len(c.List()) != 5 {
		t.Fatal("a clone does not resolve the original's addresses")
	}
	if l := c.Pack(at, netip.MustParseAddr("2001:db8::3"), 0); l.IP(c.List()) != netip.MustParseAddr("2001:db8::3") || len(a.List()) != 5 {
		t.Fatal("packing into a clone changed the original")
	}
}
