package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
)

func randTime(rng *rand.Rand) time.Time {
	if rng.Intn(8) == 0 {
		return time.Time{}
	}
	return time.Unix(0, rng.Int63n(1<<50)).UTC()
}

func randString(rng *rand.Rand, max int) string {
	b := make([]byte, rng.Intn(max+1))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randIdentity(rng *rand.Rand, i int) identity.Identity {
	return identity.Identity{
		ID:        i,
		FirstName: randString(rng, 8),
		LastName:  randString(rng, 8),
		Username:  randString(rng, 14),
		LocalPart: randString(rng, 18),
		Email:     fmt.Sprintf("id%04d@hmail.test", i),
		Password:  randString(rng, 10),
		Class:     identity.PasswordClass(rng.Intn(2)),
		Street:    randString(rng, 20),
		City:      randString(rng, 10),
		State:     randString(rng, 2),
		Zip:       randString(rng, 5),
		Phone:     randString(rng, 12),
		Birthday:  randTime(rng),
		Employer:  randString(rng, 12),
	}
}

func randLedgerState(rng *rand.Rand) *LedgerState {
	st := &LedgerState{}
	id := 0
	randSegs := func() []PoolSegmentState {
		var segs []PoolSegmentState
		for i := 0; i < rng.Intn(4); i++ {
			if rng.Intn(2) == 0 {
				segs = append(segs, PoolSegmentState{IsItem: true, Item: randIdentity(rng, id)})
				id++
			} else {
				from := rng.Int63n(1 << 30)
				segs = append(segs, PoolSegmentState{From: from, To: from + 1 + rng.Int63n(1000)})
			}
		}
		return segs
	}
	st.PoolHard = randSegs()
	st.PoolEasy = randSegs()
	randSpans := func() []SpanState {
		var spans []SpanState
		for i := 0; i < rng.Intn(3); i++ {
			from := rng.Int63n(1 << 30)
			spans = append(spans, SpanState{From: from, To: from + 1 + rng.Int63n(1<<20)})
		}
		return spans
	}
	st.SpansHard = randSpans()
	st.SpansEasy = randSpans()
	for i := 0; i < rng.Intn(5); i++ {
		st.Burned = append(st.Burned, rng.Int63n(1<<40))
	}
	for i := 0; i < rng.Intn(4); i++ {
		st.Registrations = append(st.Registrations, RegistrationState{
			Identity: randIdentity(rng, id),
			Domain:   fmt.Sprintf("site%05d.test", rng.Intn(99999)),
			Rank:     rng.Intn(100000),
			Category: randString(rng, 10),
			When:     randTime(rng),
			Code:     crawler.Code(rng.Intn(5)),
			Status:   AccountStatus(rng.Intn(5)),
			Manual:   rng.Intn(2) == 0,
		})
		id++
	}
	for i := 0; i < rng.Intn(3); i++ {
		st.Controls = append(st.Controls, randIdentity(rng, id))
		id++
	}
	for i := 0; i < rng.Intn(5); i++ {
		st.Unused = append(st.Unused, fmt.Sprintf("unused%d@hmail.test", i))
	}
	return st
}

func TestLedgerStateRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randLedgerState(rng)
		data := ledgerImage(st)
		got, err := DecodeLedgerState(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !reflect.DeepEqual(got, st) {
			t.Logf("mismatch:\n got %+v\nwant %+v", got, st)
			return false
		}
		return bytes.Equal(ledgerImage(got), data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randMonitorState(rng *rand.Rand) *MonitorState {
	st := &MonitorState{LastDump: randTime(rng), Alarms: rng.Intn(3)}
	for i := 0; i < rng.Intn(3); i++ {
		st.ExpectedControls = append(st.ExpectedControls, fmt.Sprintf("ctl%d@hmail.test", i))
	}
	for i := 0; i < rng.Intn(3); i++ {
		st.SeenControls = append(st.SeenControls, ControlSeen{Account: fmt.Sprintf("ctl%d@hmail.test", i), Count: rng.Intn(9)})
	}
	ev := func() emailprovider.LoginEvent {
		var ip netip.Addr
		if rng.Intn(2) == 0 {
			var b [4]byte
			rng.Read(b[:])
			ip = netip.AddrFrom4(b)
		}
		return emailprovider.LoginEvent{Account: randString(rng, 16), Time: randTime(rng), IP: ip, Method: "IMAP"}
	}
	for i := 0; i < rng.Intn(3); i++ {
		det := DetectionState{
			Domain:             fmt.Sprintf("site%05d.test", i),
			Rank:               rng.Intn(100000),
			Category:           randString(rng, 8),
			FirstSeen:          randTime(rng),
			LastSeen:           randTime(rng),
			HardAccessed:       rng.Intn(2) == 0,
			AccountsRegistered: rng.Intn(5),
			AccountsAccessed:   rng.Intn(5),
		}
		for j := 0; j < rng.Intn(3); j++ {
			var evs []emailprovider.LoginEvent
			for k := 0; k < 1+rng.Intn(3); k++ {
				evs = append(evs, ev())
			}
			det.Logins = append(det.Logins, AccountLogins{Account: fmt.Sprintf("a%d@hmail.test", j), Events: evs})
		}
		st.Detections = append(st.Detections, det)
	}
	return st
}

func TestMonitorStateRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randMonitorState(rng)
		data := monitorImage(st)
		got, err := DecodeMonitorState(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !reflect.DeepEqual(got, st) {
			t.Logf("mismatch:\n got %+v\nwant %+v", got, st)
			return false
		}
		return bytes.Equal(monitorImage(got), data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerExportRoundTrip exercises a live ledger end to end.
func TestLedgerExportRoundTrip(t *testing.T) {
	gen := identity.NewGenerator("hmail.test", 42)
	l := NewLedger()
	for i := 0; i < 6; i++ {
		l.AddIdentity(gen.New(identity.PasswordClass(i % 2)))
	}
	l.AddControl(gen.New(identity.Hard))
	when := time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC)
	id := l.Take(identity.Hard)
	l.Burn(id, "site00001.test", 1, "news", when, crawler.CodeOKSubmission, false)
	l.NoteEmail(id.Email, true)

	st := l.ExportState()
	got, err := DecodeLedgerState(ledgerImage(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("live ledger export did not survive a codec round trip")
	}
	if len(got.Registrations) != 1 || got.Registrations[0].Status != StatusEmailVerified {
		t.Fatalf("registrations exported wrong: %+v", got.Registrations)
	}
	if !bytes.Equal(ledgerImage(l.ExportState()), ledgerImage(st)) {
		t.Fatal("re-export changed bytes")
	}
}
