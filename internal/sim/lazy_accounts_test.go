package sim

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"tripwire/internal/identity"
)

// TestLazyEagerAccountEquivalence is the account-store property test,
// mirroring webgen's lazy-materialization invariance: a study whose
// provider accounts exist only implicitly through the (seed, rank)
// deriver must finish in exactly the state of a run that materializes
// every provisioned account up front (the pilot's test-only eagerAccounts
// path) — byte-identical across every attested section (the provider
// image with its login log, ledger, outputs with detection times) — at
// several worker counts.
func TestLazyEagerAccountEquivalence(t *testing.T) {
	want := fingerprint(NewPilot(resumeTestConfig()).Run())

	workerGrid := []int{1, 2, 4, 8}
	if testing.Short() {
		workerGrid = []int{1, 4}
	}
	for _, w := range workerGrid {
		for _, eager := range []bool{false, true} {
			cfg := resumeTestConfig()
			cfg.Workers = w
			p := NewPilot(cfg)
			p.eagerAccounts = eager
			p.Run()
			label := fmt.Sprintf("eager=%v workers=%d", eager, w)
			sameFingerprint(t, label, fingerprint(p), want)
		}
	}

	// The eager path really does materialize what the lazy path leaves
	// implicit, so the equivalence above is not vacuous. Both providers
	// encode the same image; without the deriver to elide pristine
	// accounts, the eager one lists every account it created and its image
	// outgrows the lazy one's by at least the shortest row (nine bytes of
	// lengths and flags) per account still unused.
	lazy := NewPilot(resumeTestConfig()).Run()
	eager := NewPilot(resumeTestConfig())
	eager.eagerAccounts = true
	eager.Run()
	if got, want := eager.Provider.NumAccounts(), lazy.Provider.NumAccounts(); got != want {
		t.Fatalf("NumAccounts: eager %d, lazy %d", got, want)
	}
	if !bytes.Equal(sectionImage(eager, sectionProvider), sectionImage(lazy, sectionProvider)) {
		t.Fatal("eager and lazy providers encode different images")
	}
	lazy.Provider.SetDeriver(nil)
	eager.Provider.SetDeriver(nil)
	lazyRows, eagerRows := len(sectionImage(lazy, sectionProvider)), len(sectionImage(eager, sectionProvider))
	if unused := lazy.Ledger.UnusedCount(); eagerRows-lazyRows < 9*unused {
		t.Fatalf("without the deriver the eager image is %d bytes and the lazy one %d, want at least %d more for %d unused accounts",
			eagerRows, lazyRows, 9*unused, unused)
	}
}

// TestLazyMillionAccountSmoke provisions a million honey accounts through
// the lazy (seed, rank) path and spot-checks the population without ever
// materializing it. It is the `make ci` -race smoke: fast because
// provisioning is O(1) per span regardless of the account count.
func TestLazyMillionAccountSmoke(t *testing.T) {
	const perClass = 500_000
	p := NewPilot(SmallConfig())
	p.provisionIdentities(perClass, identity.Hard)
	p.provisionIdentities(perClass, identity.Easy)

	if got := p.Provider.NumAccounts(); got < 2*perClass {
		t.Fatalf("NumAccounts = %d after provisioning %d", got, 2*perClass)
	}
	if got := p.Ledger.UnusedCount(); got < 2*perClass {
		t.Fatalf("UnusedCount = %d after provisioning %d", got, 2*perClass)
	}

	// Spot-check accounts across the range: they exist, derive stable
	// credentials, and accept logins — all without bulk materialization.
	for _, idx := range []int64{0, 1, perClass / 2, perClass - 1} {
		id := p.gen.At(identity.RankFor(identity.Hard, idx))
		if !p.Provider.Exists(id.Email) {
			t.Fatalf("provisioned account %s does not exist", id.Email)
		}
		if err := p.Provider.WebLogin(id.Email, id.Password, netip.MustParseAddr("203.0.113.7")); err != nil {
			t.Fatalf("login to %s: %v", id.Email, err)
		}
		if !p.Ledger.IsUnused(id.Email) {
			t.Fatalf("unregistered account %s not tracked as unused", id.Email)
		}
	}

	// The provider image stays O(deviating): logging in does not deviate a
	// pristine account, so the million-account population encodes as a
	// count plus the four spot-check logins, not a million rows of at
	// least nine bytes each.
	if n := len(p.Provider.AllLogins()); n != 4 {
		t.Fatalf("provider holds %d logins, want the 4 spot checks", n)
	}
	if n := len(sectionImage(p, sectionProvider)); n > 1024 {
		t.Fatalf("provider image is %d bytes after read-only spot checks, want at most 1,024", n)
	}

	// Taking an identity from the FIFO pool materializes exactly that
	// front-of-span identity.
	id := p.Ledger.Take(identity.Hard)
	if id == nil {
		t.Fatal("Take returned nil with a full pool")
	}
	if want := p.gen.At(identity.RankFor(identity.Hard, 0)).Email; id.Email != want {
		t.Fatalf("pool is not FIFO over the span: took %s, want %s", id.Email, want)
	}
}
