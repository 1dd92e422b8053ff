//go:build !amd64

package webgen

import "crypto/sha256"

// useSHANI is false off amd64: StrongDigest and StrongDigest2 run the
// sha256.Sum256 loop.
const useSHANI = false

func strongRounds2(d0, d1 *[sha256.Size]byte, n int) {
	panic("webgen: strongRounds2 is amd64-only")
}
