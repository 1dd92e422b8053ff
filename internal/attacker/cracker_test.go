package attacker

import (
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
