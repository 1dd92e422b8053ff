package webgen

import "testing"

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
// to zero allocations for a salt exactly as a site mints one.
func TestStrongDigestDoesNotAllocate(t *testing.T) {
	u := Generate(smallConfig())
	sites := u.Sites()
	salt := u.nextToken(sites[len(sites)-1].Domain, "salt")
	if got := testing.AllocsPerRun(100, func() { StrongDigest("x9Qz7TkPm2", salt) }); got != 0 {
		t.Fatalf("StrongDigest with salt %q: %v allocs/op, want 0", salt, got)
	}
}
