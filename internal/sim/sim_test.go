package sim

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"tripwire/internal/core"
	"tripwire/internal/crawler"
	"tripwire/internal/identity"
)

// smallPilot is one small pilot run shared across tests in this package.
// Tests treat it as read-only; initialization is guarded by a sync.Once so
// tests marked t.Parallel cannot race on first use.
var (
	smallPilot     *Pilot
	smallPilotOnce sync.Once
)

func pilot(t *testing.T) *Pilot {
	t.Helper()
	smallPilotOnce.Do(func() {
		smallPilot = NewPilot(SmallConfig()).Run()
	})
	return smallPilot
}

func TestPilotRegistersAccounts(t *testing.T) {
	p := pilot(t)
	if len(p.Attempts) == 0 {
		t.Fatal("no registration attempts recorded")
	}
	regs := p.Ledger.Registrations()
	if len(regs) == 0 {
		t.Fatal("no identities burned")
	}
	// Some registrations must be high-confidence (email verified).
	verified := 0
	for _, r := range regs {
		if r.Status == core.StatusEmailVerified {
			verified++
		}
	}
	if verified == 0 {
		t.Error("no registration reached Email-verified status")
	}
	t.Logf("attempts=%d burned=%d verified=%d sites=%d",
		len(p.Attempts), len(regs), verified, len(p.Ledger.Sites()))
}

func TestPilotTerminationCodeMix(t *testing.T) {
	p := pilot(t)
	counts := make(map[crawler.Code]int)
	for _, a := range p.Attempts {
		if !a.Manual {
			counts[a.Code]++
		}
	}
	// Every Figure-1 termination code must occur on a realistic web.
	for _, code := range []crawler.Code{
		crawler.CodeOKSubmission, crawler.CodeSubmissionFailed,
		crawler.CodeFieldsMissing, crawler.CodeNoRegistration,
		crawler.CodeSystemError,
	} {
		if counts[code] == 0 {
			t.Errorf("termination code %q never occurred: %v", code, counts)
		}
	}
	// "No registration found" should dominate raw attempts (paper: ~69% of
	// all submitted sites).
	if counts[crawler.CodeNoRegistration] < counts[crawler.CodeOKSubmission] {
		t.Errorf("expected no-registration to dominate: %v", counts)
	}
}

func TestPilotDetectsCompromises(t *testing.T) {
	p := pilot(t)
	dets := p.Monitor.Detections()
	if len(dets) == 0 {
		t.Fatal("no compromises detected; attacker pipeline is broken")
	}
	breaches := p.Campaign.Breaches()
	for _, d := range dets {
		if _, breached := breaches[d.Domain]; !breached {
			t.Errorf("site %s detected but never breached: false positive", d.Domain)
		}
		if d.AccountsAccessed == 0 || d.AccountsRegistered == 0 {
			t.Errorf("detection %s has empty account counts: %+v", d.Domain, d)
		}
		if d.FirstSeen.After(d.LastSeen) {
			t.Errorf("detection %s has FirstSeen after LastSeen", d.Domain)
		}
	}
	t.Logf("breached=%d detected=%d missed=%d", len(breaches), len(dets), len(p.MissedBreaches))
}

func TestPilotNoIntegrityAlarms(t *testing.T) {
	p := pilot(t)
	if alarms := p.Monitor.Alarms(); len(alarms) != 0 {
		t.Fatalf("integrity alarms fired: %v", alarms[0])
	}
	if p.Ledger.UnusedCount() == 0 {
		t.Fatal("unused honeypot account set is empty")
	}
}

func TestPilotControlLoginsReported(t *testing.T) {
	p := pilot(t)
	if p.Monitor.ControlLoginsSeen() == 0 {
		t.Fatal("control logins were not reported by the provider")
	}
}

func TestPilotBreachClassification(t *testing.T) {
	p := pilot(t)
	sawHashed, sawPlain := false, false
	for _, d := range p.Monitor.Detections() {
		switch p.Monitor.Classify(d) {
		case core.BreachHashedOnly:
			sawHashed = true
			// Verify against site ground truth: a hashed-only verdict must
			// not come from a plaintext site *when the hard account exists
			// in the store* — on plaintext sites the hard credential is
			// recoverable, so if it existed it should eventually trip.
		case core.BreachPlaintext:
			sawPlain = true
			site, _ := p.Universe.Site(d.Domain)
			if site != nil && !site.Storage.HardRecoverable() {
				t.Errorf("site %s classified plaintext but stores %v", d.Domain, site.Storage)
			}
		}
	}
	if !sawHashed && !sawPlain {
		t.Error("no breach classification produced")
	}
	t.Logf("hashed-only=%v plaintext=%v", sawHashed, sawPlain)
}

func TestPilotDetectionLagPositive(t *testing.T) {
	p := pilot(t)
	breaches := p.Campaign.Breaches()
	for domain, when := range p.DetectionTimes {
		b, ok := breaches[domain]
		if !ok {
			continue
		}
		if when.Before(b) {
			t.Errorf("site %s detected at %v before breach at %v", domain, when, b)
		}
	}
}

func TestPilotEndsOnTime(t *testing.T) {
	p := pilot(t)
	for _, a := range p.Attempts {
		if a.When.After(p.Cfg.End.Add(24 * time.Hour)) {
			t.Errorf("attempt at %v is past study end %v", a.When, p.Cfg.End)
		}
	}
}

func TestPilotEasyFollowsHard(t *testing.T) {
	p := pilot(t)
	// Wherever an easy account was registered automatically, a hard account
	// attempt must precede it at the same site (paper §4.1.2 ordering).
	hardSeen := make(map[string]bool)
	for _, a := range p.Attempts {
		if a.Manual {
			continue
		}
		if a.Class == identity.Hard {
			hardSeen[a.Domain] = true
		} else if !hardSeen[a.Domain] {
			t.Errorf("easy attempt at %s without prior hard attempt", a.Domain)
		}
	}
}

// TestTakenIdentitiesStayPristine pins the premise of keeping returned
// identities as ranks: after a SmallConfig run at 1 and at 4 workers,
// every registration's identity still equals the persona its rank
// derives, so nothing mutates an identity once it is taken.
func TestTakenIdentitiesStayPristine(t *testing.T) {
	for _, w := range []int{1, 4} {
		cfg := SmallConfig()
		cfg.Workers = w
		p := NewPilot(cfg).Run()
		regs := p.Ledger.Registrations()
		if len(regs) == 0 {
			t.Fatalf("workers=%d: no registrations", w)
		}
		for _, reg := range regs {
			if want := p.gen.At(int64(reg.Identity.ID)); !reflect.DeepEqual(reg.Identity, want) {
				t.Fatalf("workers=%d: the identity registered at %s is %+v, its rank derives %+v", w, reg.Domain, reg.Identity, want)
			}
		}
	}
}

// TestLedgerImageKeepsRanks: at the end of the seed-42 small pilot the
// ledger image stays small because its pools keep every returned identity
// as an index span: 58,359 bytes, against 199,570 when returned identities
// were kept whole. core's TestReturnKeepsRanks pins the spans themselves.
func TestLedgerImageKeepsRanks(t *testing.T) {
	if n := len(sectionImage(pilot(t), sectionLedger)); n > 60_000 {
		t.Fatalf("ledger image is %d bytes, want at most 60,000", n)
	}
}
