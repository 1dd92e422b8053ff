package webgen

import "testing"

// TestStrongDigestWithoutSHANI runs StrongDigest and StrongDigest2 as on a
// CPU without SHA-NI and checks that they give the digests they give here.
func TestStrongDigestWithoutSHANI(t *testing.T) {
	const salt = "salt-site00042.test-00000001"
	want0, want1 := StrongDigest2("Website1", "x9Qz7TkPm2", salt)
	lone := StrongDigest("Website1", salt)
	defer func(v bool) { useSHANI = v }(useSHANI)
	useSHANI = false
	if got := StrongDigest("Website1", salt); got != lone || got != want0 {
		t.Fatalf("generic StrongDigest = %x, want %x", got, lone)
	}
	if d0, d1 := StrongDigest2("Website1", "x9Qz7TkPm2", salt); d0 != want0 || d1 != want1 {
		t.Fatalf("generic StrongDigest2 = %x, %x, want %x, %x", d0, d1, want0, want1)
	}
}
