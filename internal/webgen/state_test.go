package webgen

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestUniverseStateRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := &UniverseState{NumSites: 1 + rng.Intn(100000)}
		rank := 0
		for {
			rank += 1 + rng.Intn(1000)
			if rank > st.NumSites || rng.Intn(10) == 0 {
				break
			}
			st.Materialized = append(st.Materialized, rank)
		}
		data := universeImage(st)
		got, err := DecodeUniverseState(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !reflect.DeepEqual(got, st) {
			t.Logf("mismatch: got %+v want %+v", got, st)
			return false
		}
		return bytes.Equal(universeImage(got), data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestUniverseExportTracksMaterialization pins the export against the
// lazy substrate: only touched ranks appear, in order.
func TestUniverseExportTracksMaterialization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 500
	cfg.Seed = 3
	u := Generate(cfg)
	for _, rank := range []int{401, 7, 99} {
		if _, ok := u.SiteByRank(rank); !ok {
			t.Fatalf("rank %d missing", rank)
		}
	}
	st := u.ExportState()
	if st.NumSites != 500 || !reflect.DeepEqual(st.Materialized, []int{7, 99, 401}) {
		t.Fatalf("export = %+v", st)
	}
	got, err := DecodeUniverseState(universeImage(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("universe export did not survive a codec round trip")
	}
}

// TestUniverseStateRejectsBadRanks pins the decoder's range checks.
func TestUniverseStateRejectsBadRanks(t *testing.T) {
	st := &UniverseState{NumSites: 10, Materialized: []int{3, 9}}
	data := universeImage(st)
	// Corrupt the second delta so ranks run past NumSites.
	bad := bytes.Clone(data)
	bad[len(bad)-1] = 200
	if _, err := DecodeUniverseState(bad); err == nil {
		t.Fatal("out-of-range rank decoded without error")
	}
}
