package sim

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"os"
	"testing"

	"tripwire/internal/identity"
	"tripwire/internal/snapshot"
)

// TestLazyEagerAccountEquivalence is the account-store property test,
// mirroring webgen's lazy-materialization invariance: a study whose
// provider accounts exist only implicitly through the (seed, rank)
// deriver must finish in exactly the state of a run that materializes
// every provisioned account up front — byte-identical across every
// attested section (provider export with AllLogins, ledger, outputs with
// detection times) — at several worker counts.
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
			cfg.EagerAccounts = eager
			p := NewPilot(cfg).Run()
			label := fmt.Sprintf("eager=%v workers=%d", eager, w)
			sameFingerprint(t, label, fingerprint(p), want)
		}
	}

	// The eager path really does materialize what the lazy path leaves
	// implicit — the equivalence above is not vacuous.
	lazy := NewPilot(resumeTestConfig()).Run()
	eagerCfg := resumeTestConfig()
	eagerCfg.EagerAccounts = true
	eager := NewPilot(eagerCfg).Run()
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

// TestIncrementalCheckpointEquivalence pins the O(dirty) checkpoint
// machinery: a run checkpointed through the section cache at every wave
// writes files byte-identical to a run whose cache is disabled (every
// checkpoint a full re-encode), the cache actually reuses bytes past the
// first checkpoint, and Resume from each incremental snapshot passes the
// byte attestation.
func TestIncrementalCheckpointEquivalence(t *testing.T) {
	// Both runs checkpoint into the same directory path — the path is part
	// of the encoded config section — so the incremental run's files are
	// captured in memory before the cache-disabled run overwrites them.
	dir := t.TempDir()

	cfg := resumeTestConfig()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	incr := NewPilot(cfg)
	incr.Run()
	if stats := incr.LastCheckpointStats(); stats.ReusedBytes == 0 {
		t.Fatal("final checkpoint reused no cached bytes; the incremental path is not engaging")
	}
	incrFiles := checkpointFiles(t, dir)
	if len(incrFiles) == 0 {
		t.Fatal("no checkpoints written")
	}
	incrBytes := make(map[string][]byte, len(incrFiles))
	for _, file := range incrFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		incrBytes[file] = data
	}

	full := NewPilot(cfg)
	full.ckptCache = nil // every checkpoint re-encodes from live state
	full.Run()
	if stats := full.LastCheckpointStats(); stats.ReusedBytes != 0 || stats.EncodedBytes != 0 {
		t.Fatalf("cache-disabled run recorded cache stats %+v", stats)
	}

	fullFiles := checkpointFiles(t, dir)
	if len(fullFiles) != len(incrFiles) {
		t.Fatalf("checkpoint counts differ: %d incremental, %d full", len(incrFiles), len(fullFiles))
	}
	for _, file := range fullFiles {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := incrBytes[file]
		if !ok {
			t.Fatalf("full run wrote %s, which the incremental run did not", file)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: incremental file differs from full re-encode (%d vs %d bytes)",
				file, len(got), len(want))
		}
	}

	// The finished pilot's cached assembly must also equal a fresh full
	// encode — not just the files written mid-run.
	incrSnap, err := incr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fullSnap, err := incr.CheckpointFull()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot.Encode(incrSnap), snapshot.Encode(fullSnap)) {
		t.Fatal("post-run Checkpoint() and CheckpointFull() encode different bytes")
	}

	// Resume from every incremental snapshot: RunContext replays the
	// prefix and byte-attests the rebuilt state against the snapshot; a
	// stale or mis-stitched section fails here naming itself.
	files := incrFiles
	if testing.Short() {
		files = []string{files[0], files[len(files)/2], files[len(files)-1]}
	}
	want := fingerprint(incr)
	for _, file := range files {
		p, err := ResumePilot(file, func(c *Config) {
			c.CheckpointDir = ""
			c.CheckpointEvery = 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RunContext(context.Background()); err != nil {
			t.Fatalf("resume %s: %v", file, err)
		}
		sameFingerprint(t, "resumed "+file, fingerprint(p), want)
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
