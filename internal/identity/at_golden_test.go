package identity

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestAtGolden pins the personas At derives, field by field, for the
// first 20,000 ranks under two seeds: identities are pure functions of
// (seed, rank), so any change to how At formats a field shows here.
func TestAtGolden(t *testing.T) {
	h := sha256.New()
	for _, seed := range []int64{43, 7} {
		g := NewGenerator("bigmail.test", seed)
		for rank := int64(0); rank < 20_000; rank++ {
			fmt.Fprintf(h, "%+v\n", *g.At(rank))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != atGolden {
		t.Fatalf("At derives different personas: digest %s, want %s", got, atGolden)
	}
}

const atGolden = "4fbfb9a0eb5a594e6f331744fe55a53f1d386182fe5e58acc1c35b67e847b974"
