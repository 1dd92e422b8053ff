package webgen

import (
	"crypto/sha256"
	"math/rand/v2"
	"strings"
	"testing"
)

// TestStrongHashKnownAnswer pins the stored StoreStrongHash format, so a
// change to how the digest is computed cannot change what a store holds or
// what a dump exposes.
func TestStrongHashKnownAnswer(t *testing.T) {
	for _, c := range []struct{ pw, salt, want string }{
		{"Website1", "salt-site00042.test-00000001", "d763e4f13efec370fe18a99b30beab574aa866be3738f073ce82f8819c3f6cad"},
		{"x9Qz7TkPm2", "salt-site00042.test-00000002", "e498ee027a20f39e68a98901ed18eac652c5daa3fafa5f93d62ee7572590b8fc"},
		{"Website1", "", "01acc826f3c5648eb76aabe6d68aee90b5898b1e68475c0ef1784ec1f395edb1"},
	} {
		if got := EncodePassword(StoreStrongHash, c.pw, c.salt); got != c.want {
			t.Errorf("EncodePassword(strong, %q, %q) = %s, want %s", c.pw, c.salt, got, c.want)
		}
	}
}

// TestStrongDigestDoesNotAllocate holds the dictionary attack's inner loop
// to zero allocations for a salt exactly as a site mints one, for a lone
// digest and a pair.
func TestStrongDigestDoesNotAllocate(t *testing.T) {
	u := Generate(smallConfig())
	sites := u.Sites()
	salt := u.nextToken(sites[len(sites)-1].Domain, "salt")
	if got := testing.AllocsPerRun(100, func() { StrongDigest("x9Qz7TkPm2", salt) }); got != 0 {
		t.Fatalf("StrongDigest with salt %q: %v allocs/op, want 0", salt, got)
	}
	if got := testing.AllocsPerRun(100, func() { StrongDigest2("x9Qz7TkPm2", "Website1", salt) }); got != 0 {
		t.Fatalf("StrongDigest2 with salt %q: %v allocs/op, want 0", salt, got)
	}
}

// TestStrongDigestMatchesGeneric holds StrongDigest and both lanes of
// StrongDigest2 to the sha256.Sum256 loop on random passwords and salts of
// 0–200 bytes, so inputs run past the 128-byte stack buffer.
func TestStrongDigestMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	randString := func() string {
		b := make([]byte, rng.IntN(201))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return string(b)
	}
	for range 200 {
		checkStrongDigest(t, randString(), randString(), randString())
	}
}

// FuzzStrongDigest makes TestStrongDigestMatchesGeneric's comparison on
// fuzzed inputs.
func FuzzStrongDigest(f *testing.F) {
	f.Add("Website1", "x9Qz7TkPm2", "salt-site00042.test-00000001")
	f.Add("", "", "")
	f.Add(strings.Repeat("p", 200), "Website2", strings.Repeat("s", 129))
	f.Fuzz(checkStrongDigest)
}

// checkStrongDigest compares StrongDigest(pw0) and StrongDigest2 with its
// lanes in order, swapped and equal against strongDigestGeneric.
func checkStrongDigest(t *testing.T, pw0, pw1, salt string) {
	t.Helper()
	want := map[string][sha256.Size]byte{pw0: strongDigestGeneric(pw0, salt), pw1: strongDigestGeneric(pw1, salt)}
	if got := StrongDigest(pw0, salt); got != want[pw0] {
		t.Fatalf("StrongDigest(%q, %q) = %x, want %x", pw0, salt, got, want[pw0])
	}
	for _, lanes := range [][2]string{{pw0, pw1}, {pw1, pw0}, {pw0, pw0}} {
		d0, d1 := StrongDigest2(lanes[0], lanes[1], salt)
		if d0 != want[lanes[0]] || d1 != want[lanes[1]] {
			t.Fatalf("StrongDigest2(%q, %q, %q) = %x, %x, want %x, %x",
				lanes[0], lanes[1], salt, d0, d1, want[lanes[0]], want[lanes[1]])
		}
	}
}
