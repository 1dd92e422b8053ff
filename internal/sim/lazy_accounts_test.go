package sim

import (
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
// path) — byte-identical across every attested section (provider export
// with AllLogins, ledger, outputs with detection times) — at several
// worker counts.
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
	// implicit — the equivalence above is not vacuous.
	lazy := NewPilot(resumeTestConfig()).Run()
	eager := NewPilot(resumeTestConfig())
	eager.eagerAccounts = true
	eager.Run()
	if got, want := eager.Provider.NumAccounts(), lazy.Provider.NumAccounts(); got != want {
		t.Fatalf("NumAccounts: eager %d, lazy %d", got, want)
	}
	lazySt, eagerSt := lazy.Provider.ExportState(), eager.Provider.ExportState()
	if lazySt.Implicit == 0 {
		t.Fatal("lazy run has no implicit accounts; the provisioning path went eager")
	}
	if lazySt.Implicit != eagerSt.Implicit || len(lazySt.Accounts) != len(eagerSt.Accounts) {
		t.Fatalf("export shape differs: lazy %d implicit/%d explicit, eager %d implicit/%d explicit",
			lazySt.Implicit, len(lazySt.Accounts), eagerSt.Implicit, len(eagerSt.Accounts))
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

	// Export stays O(deviating): logging in does not deviate a pristine
	// account, so the million-account population exports as a counter plus
	// the login events, not a million rows.
	st := p.Provider.ExportState()
	if st.Implicit < 2*perClass {
		t.Fatalf("Implicit = %d, want >= %d", st.Implicit, 2*perClass)
	}
	if len(st.Accounts) != 0 {
		t.Fatalf("%d accounts materialized by read-only spot checks", len(st.Accounts))
	}
	if len(st.Logins) != 4 {
		t.Fatalf("expected the 4 spot-check logins in the export, got %d", len(st.Logins))
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
