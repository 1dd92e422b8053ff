package webgen

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tripwire/internal/snapshot"
)

// TestUniverseStateRoundTrip: over generated universes and rank sets
// touched in random order, with repeats and out-of-range ranks, the image
// is exactly the rank count, then the touched in-range ranks as a sorted,
// delta-encoded set — so it names the materialized set whatever order
// touched it — and re-encodes byte for byte.
func TestUniverseStateRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.NumSites = 1 + rng.Intn(5000)
		cfg.Seed = seed
		u := Generate(cfg)
		touched := map[int]bool{}
		for i := rng.Intn(40); i > 0; i-- {
			rank := rng.Intn(cfg.NumSites+10) - 4
			_, ok := u.SiteByRank(rank)
			if inRange := rank >= 1 && rank <= cfg.NumSites; ok != inRange {
				t.Logf("seed %d: SiteByRank(%d) = %v in a %d-site universe", seed, rank, ok, cfg.NumSites)
				return false
			}
			if ok {
				touched[rank] = true
				if rng.Intn(4) == 0 {
					u.SiteByRank(rank)
				}
			}
		}
		ranks := snapshot.SortedKeys(touched)
		want := snapshot.NewEncoder()
		want.Int(int64(cfg.NumSites))
		want.Uint(uint64(len(ranks)))
		prev := 0
		for _, r := range ranks {
			want.Uint(uint64(r - prev))
			prev = r
		}
		got := snapshot.NewEncoder()
		u.EncodeSection(got)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Logf("seed %d: image %x, want %x for ranks %v", seed, got.Bytes(), want.Bytes(), ranks)
			return false
		}
		// The same set touched in another order encodes the same bytes.
		v := Generate(cfg)
		rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
		for _, r := range ranks {
			v.SiteByRank(r)
		}
		again := snapshot.NewEncoder()
		v.EncodeSection(again)
		return bytes.Equal(again.Bytes(), want.Bytes())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestUniverseExportTracksMaterialization pins the universe section
// against the lazy substrate: only touched ranks appear, in order,
// delta-encoded after the rank count. Touching a new rank changes the
// image; touching a materialized rank again, or one out of range, does
// not.
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
	image := func() []byte {
		e := snapshot.NewEncoder()
		u.EncodeSection(e)
		return e.Bytes()
	}
	want := snapshot.NewEncoder()
	want.Int(500)
	want.Uint(3)
	for _, delta := range []uint64{7, 92, 302} {
		want.Uint(delta)
	}
	base := image()
	if !bytes.Equal(base, want.Bytes()) {
		t.Fatalf("image = %x, want %x", base, want.Bytes())
	}
	u.SiteByRank(99)
	u.SiteByRank(501)
	if !bytes.Equal(image(), base) {
		t.Fatal("touching a materialized or out-of-range rank changed the image")
	}
	u.SiteByRank(100)
	if bytes.Equal(image(), base) {
		t.Fatal("materializing rank 100 left the image unchanged")
	}
}
