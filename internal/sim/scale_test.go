package sim

import (
	"testing"

	"tripwire/internal/identity"
)

// TestControlLoginsDeterministic pins the scheduleControls ordering fix: the
// provider's login log — control logins included — must come out identical
// for two same-seed runs. (An earlier version ranged over the controlCreds
// map, so the log's within-tick order varied run to run.)
func TestControlLoginsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pilots in -short mode")
	}
	cfg := SmallConfig()
	cfg.Web.NumSites = 400
	cfg.NumUnused = 300
	a := NewPilot(cfg).Run()
	b := NewPilot(cfg).Run()

	la, lb := a.Provider.AllLogins(), b.Provider.AllLogins()
	if len(la) != len(lb) {
		t.Fatalf("login log lengths differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		x, y := la[i], lb[i]
		if x.Account != y.Account || !x.Time.Equal(y.Time) || x.IP != y.IP || x.Method != y.Method {
			t.Fatalf("login %d differs: %+v vs %+v", i, x, y)
		}
	}
}

// TestDrainMailIncremental checks the cursor-based drain: after a run every
// delivered message has been consumed exactly once (cursor caught up to the
// store), and draining again is a no-op — the incremental path cannot
// reprocess history the way the old drain-All() loop re-copied it.
func TestDrainMailIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("full pilot in -short mode")
	}
	cfg := SmallConfig()
	cfg.Web.NumSites = 400
	cfg.NumUnused = 300
	p := NewPilot(cfg).Run()

	if got, want := p.mailCursor, p.Mail.Count(); got != want {
		t.Fatalf("mail cursor %d, want %d (all delivered mail drained)", got, want)
	}
	if msgs := p.Mail.Since(p.mailCursor); msgs != nil {
		t.Fatalf("Since(cursor) returned %d messages, want none", len(msgs))
	}
	attempts, logins := len(p.Attempts), len(p.Provider.AllLogins())
	p.drainMail()
	if len(p.Attempts) != attempts || len(p.Provider.AllLogins()) != logins {
		t.Fatalf("re-drain changed state: attempts %d->%d, logins %d->%d",
			attempts, len(p.Attempts), logins, len(p.Provider.AllLogins()))
	}

	// The incremental view over the whole history is the full history.
	all, since := p.Mail.All(), p.Mail.Since(0)
	if len(all) != len(since) {
		t.Fatalf("Since(0) has %d messages, All has %d", len(since), len(all))
	}
	for i := range all {
		if all[i] != since[i] {
			t.Fatalf("message %d differs between All and Since(0)", i)
		}
	}
}

// TestLazyMaterializationSmoke runs a wave over ~10% of a 10k-site universe
// at high worker count and asserts the lazy substrate derived exactly the
// touched ranks — memory scales with sites crawled, not universe size. Runs
// under the race detector in `make ci`; skipped with -short.
func TestLazyMaterializationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-site universe in -short mode")
	}
	const waveSites = 1024
	cfg := SmallConfig()
	cfg.Web.NumSites = 10000
	cfg.Workers = 16
	cfg.BreachRegistered = 0
	cfg.BreachUnregistered = 0
	p := NewPilot(cfg)
	p.provisionIdentities(waveSites+50, identity.Hard)
	p.provisionIdentities(waveSites/2, identity.Easy)
	if got := p.Universe.MaterializedSites(); got != 0 {
		t.Fatalf("fresh pilot already materialized %d sites", got)
	}
	ranks := make([]rankAt, waveSites)
	for i := range ranks {
		ranks[i] = rankAt{rank: i*9 + 1, at: cfg.Start} // spread across the rank space
	}
	p.runWave(ranks, false, "smoke")

	if got := p.Universe.MaterializedSites(); got != waveSites {
		t.Fatalf("materialized %d sites, want exactly the %d crawled", got, waveSites)
	}
	if len(p.Attempts) < waveSites {
		t.Fatalf("recorded %d attempts, want at least one per crawled site (%d)", len(p.Attempts), waveSites)
	}
}
