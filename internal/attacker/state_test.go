package attacker

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func randAttackerState(rng *rand.Rand) *AttackerState {
	st := &AttackerState{}
	base := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rng.Intn(4); i++ {
		st.Campaign.Breaches = append(st.Campaign.Breaches, BreachState{
			Domain: fmt.Sprintf("site%05d.test", i),
			At:     base.Add(time.Duration(rng.Int63n(int64(1000 * time.Hour)))),
		})
	}
	for i := 0; i < rng.Intn(3); i++ {
		st.Campaign.Dead = append(st.Campaign.Dead, fmt.Sprintf("dead%d@hmail.test", i))
	}
	for i := 0; i < rng.Intn(3); i++ {
		st.Campaign.Resales = append(st.Campaign.Resales, fmt.Sprintf("resold%05d.test", i))
	}
	for i := 0; i < rng.Intn(6); i++ {
		var ip netip.Addr
		if rng.Intn(3) > 0 {
			var b [4]byte
			rng.Read(b[:])
			ip = netip.AddrFrom4(b)
		}
		st.Stuffer.Records = append(st.Stuffer.Records, LoginRecord{
			Email:   fmt.Sprintf("acct%d@hmail.test", rng.Intn(9)),
			Time:    base.Add(time.Duration(rng.Int63n(int64(1000 * time.Hour)))),
			IP:      ip,
			Success: rng.Intn(2) == 0,
		})
	}
	for i := 0; i < rng.Intn(4); i++ {
		st.Stuffer.Draws = append(st.Stuffer.Draws, DrawState{Email: fmt.Sprintf("acct%d@hmail.test", i), N: rng.Uint64() % 1000})
	}
	return st
}

func TestAttackerStateRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randAttackerState(rng)
		data := attackerImage(st)
		got, err := DecodeAttackerState(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !reflect.DeepEqual(got, st) {
			t.Logf("mismatch:\n got %+v\nwant %+v", got, st)
			return false
		}
		return bytes.Equal(attackerImage(got), data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStufferExportDrawCounters pins that draw counters survive export:
// they are what makes the resumed attacker's future proxy leases and
// IMAP/POP splits identical to the uninterrupted run's.
func TestStufferExportDrawCounters(t *testing.T) {
	s := NewStuffer(nil, nil, func() time.Time { return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC) })
	s.nextDraw("a@hmail.test")
	s.nextDraw("a@hmail.test")
	s.nextDraw("b@hmail.test")
	st := s.ExportState()
	want := []DrawState{{Email: "a@hmail.test", N: 2}, {Email: "b@hmail.test", N: 1}}
	if !reflect.DeepEqual(st.Draws, want) {
		t.Fatalf("draws = %+v, want %+v", st.Draws, want)
	}
	got, err := DecodeAttackerState(attackerImage(&AttackerState{Stuffer: st}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stuffer.Draws, want) {
		t.Fatalf("decoded draws = %+v", got.Stuffer.Draws)
	}
}
