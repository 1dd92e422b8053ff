package attacker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tripwire/internal/identity"
	"tripwire/internal/webgen"
)

// TestProviderFirstCrackMatchesFullCrack checks that cracking only the
// provider's rows of a dump recovers exactly what cracking every row and
// then keeping the provider's credentials does, in the same order, under
// every storage policy.
func TestProviderFirstCrackMatchesFullCrack(t *testing.T) {
	const provider = "bigmail.test"
	var ids []*identity.Identity
	for i, d := range []string{provider, "othermail.test"} {
		g := identity.NewGenerator(d, int64(7+i))
		ids = append(ids, g.Batch(2, identity.Easy)...)
		ids = append(ids, g.Batch(2, identity.Hard)...)
	}
	easy := ids[0]
	c := &Cracker{Words: identity.DictionaryWords()}
	for _, policy := range []webgen.StoragePolicy{webgen.StorePlaintext, webgen.StoreReversible, webgen.StoreWeakHash, webgen.StoreStrongHash} {
		t.Run(policy.String(), func(t *testing.T) {
			st := webgen.NewStore(policy)
			n := 0
			create := func(user, email, pw string) {
				n++
				salt := ""
				if policy == webgen.StoreStrongHash {
					salt = fmt.Sprintf("salt-site00042.test-%08d", n)
				}
				if _, err := st.Create(user, email, pw, salt, t0); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range ids {
				create(id.Username, id.Email, id.Password)
			}
			// Rows the filter must keep or drop by the address alone: one
			// provider address held by two accounts (an email-order tie
			// that dump order must break), the provider's domain in upper
			// case, and a domain that merely ends in the provider's name.
			create("aaa-shared", easy.Email, "Website1")
			create("zzz-shared", easy.Email, "Website2")
			create("upper-case", "Upper@BIGMAIL.TEST", "Diamond7")
			create("lookalike", "x@notbigmail.test", "Website3")
			dump := st.Dump()

			var want []Credential
			for _, cred := range c.Crack(dump) {
				if strings.HasSuffix(strings.ToLower(cred.Email), "@"+provider) {
					want = append(want, cred)
				}
			}
			got := c.Crack(FilterByDomain(dump, provider))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("provider-first crack:\n got %+v\nwant %+v", got, want)
			}
			if len(want) < 4 {
				t.Fatalf("oracle recovered only %d provider credentials: %+v", len(want), want)
			}
		})
	}
}

// genericStrongHex is the stored StoreStrongHash form computed with
// sha256.Sum256 alone, independent of webgen's SHA-NI routine.
func genericStrongHex(pw, salt string) string {
	sum := sha256.Sum256([]byte(salt + pw))
	for i := 1; i < webgen.StrongHashRounds; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return hex.EncodeToString(sum[:])
}

// TestCrackOneMatchesGenericScan checks crackOne's paired strong-hash scan
// against a one-candidate-at-a-time sha256.Sum256 scan: the password at an
// even candidate index, at an odd one, at the last, at the unpaired end of
// an odd-length list, and absent.
func TestCrackOneMatchesGenericScan(t *testing.T) {
	cands := (&Cracker{Words: identity.DictionaryWords()}).candidates()
	odd := cands[:101]
	hard := identity.NewGenerator("bigmail.test", 7).New(identity.Hard).Password
	const salt = "salt-site00042.test-00000007"
	for _, c := range []struct {
		name, pw string
		cands    []string
	}{
		{"even-index", cands[10], cands},
		{"odd-index", cands[11], cands},
		{"last-index", cands[len(cands)-1], cands},
		{"odd-length", odd[len(odd)-1], odd},
		{"absent", hard, cands},
	} {
		t.Run(c.name, func(t *testing.T) {
			stored := genericStrongHex(c.pw, salt)
			wantPW, wantOK := "", false
			for _, cand := range c.cands {
				if genericStrongHex(cand, salt) == stored {
					wantPW, wantOK = cand, true
					break
				}
			}
			if wantOK != (c.name != "absent") || wantOK && wantPW != c.pw {
				t.Fatalf("generic scan found (%q, %v) for %q", wantPW, wantOK, c.pw)
			}
			e := webgen.DumpEntry{Stored: stored, Salt: salt, Policy: webgen.StoreStrongHash}
			if pw, ok := crackOne(e, c.cands); pw != wantPW || ok != wantOK {
				t.Fatalf("crackOne = (%q, %v), want (%q, %v)", pw, ok, wantPW, wantOK)
			}
		})
	}
}

// TestCrackOneAllocatesNothingPerCandidate holds an uncrackable weak-hash
// row and strong-hash row, each scanning the whole dictionary, to the one
// hex decode of the stored digest.
func TestCrackOneAllocatesNothingPerCandidate(t *testing.T) {
	cands := (&Cracker{Words: identity.DictionaryWords()}).candidates()
	hard := identity.NewGenerator("bigmail.test", 7).New(identity.Hard).Password
	for _, policy := range []webgen.StoragePolicy{webgen.StoreWeakHash, webgen.StoreStrongHash} {
		salt := ""
		if policy == webgen.StoreStrongHash {
			salt = "salt-site00042.test-00000007"
		}
		e := webgen.DumpEntry{Stored: webgen.EncodePassword(policy, hard, salt), Salt: salt, Policy: policy}
		if _, ok := crackOne(e, cands); ok {
			t.Fatalf("%v: hard password %q cracked", policy, hard)
		}
		if got := testing.AllocsPerRun(3, func() { crackOne(e, cands) }); got > 1 {
			t.Errorf("%v: crackOne over %d candidates: %v allocs/op, want at most 1", policy, len(cands), got)
		}
	}
}
