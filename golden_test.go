package tripwire_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"tripwire"
)

// smallSeed42Digest is the SHA-256 of Summary() for SmallConfig at seed 42,
// which is also the stdout of `tripwire -scale small -seed 42`. Any change
// to it is a change to the reproduced study, not a refactor. The
// paper-scale digest is pinned by the bench module.
const smallSeed42Digest = "8a5ca57998a68fdadc50af589655348854f5975bb1310e72d19ca45ebdf14b12"

func TestGoldenSmallSeed42Digest(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := tripwire.New(
				tripwire.WithConfig(tripwire.SmallConfig()),
				tripwire.WithSeed(42),
				tripwire.WithWorkers(workers),
			).Run()
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(s.Summary()))
			if got := hex.EncodeToString(sum[:]); got != smallSeed42Digest {
				t.Fatalf("Summary digest = %s, want %s", got, smallSeed42Digest)
			}
		})
	}
}
