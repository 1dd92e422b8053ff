package sim

import (
	"slices"
	"strings"
	"testing"

	"tripwire/internal/core"
	"tripwire/internal/identity"
	"tripwire/internal/webgen"
)

// TestMailForwardingPipeline exercises the full verification chain: a site
// emails the honey account at the provider; the provider forwards it over a
// real SMTP session to the Tripwire mail server at the relay domain; the
// pipeline maps the relay address back, upgrades the registration status,
// and clicks the verification link so the site marks the account verified.
func TestMailForwardingPipeline(t *testing.T) {
	p := pilot(t)
	// Find a registration that reached EmailVerified status.
	var reg *core.Registration
	for _, r := range p.Ledger.Registrations() {
		if r.Status == core.StatusEmailVerified && !r.Manual {
			reg = r
			break
		}
	}
	if reg == nil {
		t.Fatal("no email-verified registration in pilot")
	}
	// The message must exist on the Tripwire mail server, addressed to the
	// relay domain, not the provider domain.
	relayAddr := forwardAddress(reg.Identity.Email)
	msgs := p.Mail.Messages(relayAddr)
	if len(msgs) == 0 {
		t.Fatalf("no forwarded mail at %s", relayAddr)
	}
	if !strings.HasSuffix(msgs[0].To, "@"+RelayDomain) {
		t.Fatalf("forwarded message addressed to %s, want relay domain", msgs[0].To)
	}
	// A copy must also sit in the provider inbox (sites mail the honey
	// address directly).
	if len(p.Provider.Inbox(reg.Identity.Email)) == 0 {
		t.Fatal("provider inbox empty for verified account")
	}
	// If the site gates login on verification, the verification click must
	// have landed: the stored account is marked verified.
	site, _ := p.Universe.Site(reg.Domain)
	if site != nil && site.VerifyToLogin && !site.BrokenVerify {
		st := p.Universe.Store(reg.Domain)
		local, _, _ := strings.Cut(reg.Identity.Email, "@")
		acct, ok := st.Lookup(reg.Identity.Username)
		if !ok {
			acct, ok = st.Lookup(local)
		}
		if ok && !acct.Verified {
			t.Fatalf("verification link for %s on %s never clicked", reg.Identity.Email, reg.Domain)
		}
	}
}

// TestForwardAddressRoundTrip checks the relay-address mapping.
func TestForwardAddressRoundTrip(t *testing.T) {
	honey := "arguablegem8317@" + ProviderDomain
	fwd := forwardAddress(honey)
	if !strings.HasSuffix(fwd, "@"+RelayDomain) {
		t.Fatalf("forward address %q not at relay domain", fwd)
	}
	if got := honeyAddress(fwd); got != honey {
		t.Fatalf("round trip %q -> %q -> %q", honey, fwd, got)
	}
}

// TestValidationMatchesStores cross-checks ValidateAll against ground truth:
// an account validates iff it exists in the site store with the identity's
// password and passes any verification gate.
func TestValidationMatchesStores(t *testing.T) {
	p := pilot(t)
	vals := p.ValidateAll()
	if len(vals) == 0 {
		t.Fatal("no registrations to validate")
	}
	okCount := 0
	for _, v := range vals {
		reg := v.Registration
		st := p.Universe.Store(reg.Domain)
		local, _, _ := strings.Cut(reg.Identity.Email, "@")
		exists := st.CheckPassword(reg.Identity.Username, reg.Identity.Password) ||
			st.CheckPassword(local, reg.Identity.Password)
		if v.Valid && !exists {
			t.Fatalf("%s at %s validated but no stored credential matches", reg.Identity.Email, reg.Domain)
		}
		if v.Valid {
			okCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no registration validated")
	}
}

// TestUnusedAccountsDwarfUsed verifies the §4.4 monitoring population: far
// more provisioned accounts stay unused than are ever burned.
func TestUnusedAccountsDwarfUsed(t *testing.T) {
	p := pilot(t)
	used := len(p.Ledger.Registrations())
	unused := p.Ledger.UnusedCount()
	if unused <= used {
		t.Fatalf("unused (%d) should exceed used (%d)", unused, used)
	}
}

// TestIdentityReuseAcrossSites verifies the paper's §5 economy: non-exposed
// attempts return identities to the pool, so total identities consumed is
// far below total attempts.
func TestIdentityReuseAcrossSites(t *testing.T) {
	p := pilot(t)
	burned := len(p.Ledger.Registrations())
	attempts := len(p.Attempts)
	if burned >= attempts {
		t.Fatalf("burned (%d) should be well below attempts (%d): identities must be reused", burned, attempts)
	}
}

// TestBreachTargetsHadAccounts ensures the registered-site breach selector
// only picked sites where a Tripwire account truly exists.
func TestBreachTargetsHadAccounts(t *testing.T) {
	p := pilot(t)
	for _, d := range p.Monitor.Detections() {
		if !p.tripwireAccountExists(d.Domain) {
			t.Fatalf("detected site %s holds no tripwire account", d.Domain)
		}
	}
}

// TestManualOnlyOnEligibleTopSites checks the manual batch respected the
// paper's constraints: English-language eligible sites within the batch's
// rank range, all with easy passwords.
func TestManualOnlyOnEligibleTopSites(t *testing.T) {
	p := pilot(t)
	maxRank := 0
	for _, b := range p.Cfg.Batches {
		if b.Manual && b.ToRank > maxRank {
			maxRank = b.ToRank
		}
	}
	for _, a := range p.Attempts {
		if !a.Manual {
			continue
		}
		if a.Rank > maxRank {
			t.Errorf("manual registration at rank %d beyond batch range %d", a.Rank, maxRank)
		}
		if a.Class != identity.Easy {
			t.Errorf("manual registration with %v password; paper used easy", a.Class)
		}
		site, _ := p.Universe.Site(a.Domain)
		if site.Language != webgen.LangEnglish {
			t.Errorf("manual registration at non-English site %s", a.Domain)
		}
	}
}

// TestBreachPicksMatchRescan runs the small pilot and checks every breach
// pick among registered sites: the candidates the liveSites cache gives
// must be exactly the ones a rescan of every registered site finds, and
// the run must still breach and detect.
func TestBreachPicksMatchRescan(t *testing.T) {
	p := NewPilot(SmallConfig())
	picks := 0
	p.onLivePick = func(breached map[string]bool, cands []string) {
		picks++
		var want []string
		for _, domain := range p.Ledger.Sites() {
			if !breached[domain] && p.tripwireAccountExists(domain) {
				want = append(want, domain)
			}
		}
		slices.Sort(want)
		if !slices.Equal(cands, want) {
			var missed, extra []string
			for _, d := range want {
				if !slices.Contains(cands, d) {
					missed = append(missed, d)
				}
			}
			for _, d := range cands {
				if !slices.Contains(want, d) {
					extra = append(extra, d)
				}
			}
			t.Errorf("pick %d: the cache missed %v and added %v", picks, missed, extra)
		}
	}
	p.Run()
	if picks == 0 || len(p.Monitor.Detections()) == 0 {
		t.Fatalf("%d registered-site picks and %d detections: the check saw nothing", picks, len(p.Monitor.Detections()))
	}
}
