package webgen

import "crypto/sha256"

// StrongHashRounds is the iteration count of the salted hash. Small enough
// to keep simulations fast, large enough that the dictionary bench shows
// the expected plaintext-vs-hashed cost asymmetry.
const StrongHashRounds = 128

// StrongDigest is the raw StoreStrongHash digest of pw under salt:
// SHA-256 over salt+pw, iterated StrongHashRounds times. It does not
// allocate for inputs up to 128 bytes, so a dictionary attack can compare
// digests without building a hex string per candidate.
func StrongDigest(pw, salt string) [sha256.Size]byte {
	if !useSHANI {
		return strongDigestGeneric(pw, salt)
	}
	d := strongFirst(pw, salt)
	e := d
	strongRounds2(&d, &e, StrongHashRounds-1)
	return d
}

// StrongDigest2 returns StrongDigest(pw0, salt) and StrongDigest(pw1,
// salt). With SHA-NI the two chains advance together, each hiding the
// other's round latency, so a pair costs well under two lone digests.
func StrongDigest2(pw0, pw1, salt string) (d0, d1 [sha256.Size]byte) {
	if !useSHANI {
		return strongDigestGeneric(pw0, salt), strongDigestGeneric(pw1, salt)
	}
	d0, d1 = strongFirst(pw0, salt), strongFirst(pw1, salt)
	strongRounds2(&d0, &d1, StrongHashRounds-1)
	return d0, d1
}

// strongFirst is the first round, SHA-256 over salt+pw, hashed from a stack
// buffer. Every later round hashes one 32-byte digest.
func strongFirst(pw, salt string) [sha256.Size]byte {
	var buf [128]byte
	return sha256.Sum256(append(append(buf[:0], salt...), pw...))
}

// strongDigestGeneric computes StrongDigest with sha256.Sum256 alone. It
// runs wherever the SHA-NI routine cannot, and the tests hold the routine
// to it.
func strongDigestGeneric(pw, salt string) [sha256.Size]byte {
	sum := strongFirst(pw, salt)
	for i := 1; i < StrongHashRounds; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return sum
}
