package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
)

// TestLedgerParallelStress hammers the ledger from many goroutines the way
// a crawl wave does — concurrent takes, burns, returns, mail notes, and
// readers — and checks the conservation invariant afterwards, and that
// every identity taken, returned ones included, equals its rank's persona.
// Run under -race this doubles as the data-race proof for the parallel
// engine's shared ledger.
func TestLedgerParallelStress(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 8
		perWorker  = 50
	)
	l := NewLedger()
	g := identity.NewGenerator("bigmail.test", 101)
	l.SetDeriver(g.At)
	total := goroutines * perWorker
	for i := 0; i < total; i++ {
		l.AddIdentity(g.New(identity.Hard))
	}

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				id := l.Take(identity.Hard)
				if id == nil {
					t.Error("pool ran dry: Take lost an identity")
					return
				}
				if want := g.At(int64(id.ID)); !reflect.DeepEqual(id, want) {
					t.Errorf("took %v, want its rank's persona %v", id, want)
					return
				}
				switch rng.Intn(3) {
				case 0:
					l.Return(id)
				case 1:
					domain := fmt.Sprintf("w%d-i%d.test", w, i)
					l.Burn(id, domain, w*1000+i, "Stress", t0, crawler.CodeOKSubmission, false)
					l.NoteEmail(id.Email, rng.Intn(2) == 0)
				default:
					domain := fmt.Sprintf("w%d-i%d.test", w, i)
					l.Burn(id, domain, w*1000+i, "Stress", t0, crawler.CodeSubmissionFailed, false)
					// Idempotent re-burn to the same site must stay legal
					// concurrently.
					l.Burn(id, domain, w*1000+i, "Stress", t0, crawler.CodeSubmissionFailed, false)
				}
			}
		}(w)
	}
	// Concurrent readers: the monitor and report layers walk these views
	// while waves are in flight.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = l.Sites()
				_ = l.Registrations()
				_ = l.PoolSize()
				_ = l.UnusedCount()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	burned := len(l.Registrations())
	if got := l.PoolSize() + burned; got != total {
		t.Fatalf("identities not conserved: pool %d + burned %d = %d, want %d",
			l.PoolSize(), burned, got, total)
	}
	if l.UnusedCount() != l.PoolSize() {
		t.Fatalf("unused %d != pool %d: burn/unused bookkeeping diverged",
			l.UnusedCount(), l.PoolSize())
	}
	for _, domain := range l.Sites() {
		for _, reg := range l.SiteRegistrations(domain) {
			if reg.Domain != domain {
				t.Fatalf("registration for %s filed under %s", reg.Domain, domain)
			}
		}
	}
}

// TestControlsNeverTripProperty is the §4.2 control-account property: no
// attacker login schedule may ever turn a control account into an alarm or
// a detection — even while registration burns mutate the ledger
// concurrently with dump ingestion. testing/quick drives randomized
// schedules; -race checks the concurrent access.
func TestControlsNeverTripProperty(t *testing.T) {
	t.Parallel()
	property := func(seed int64, nEvents uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newIngestWorld()
		l := w.l
		g := identity.NewGenerator("bigmail.test", seed)
		m := NewMonitor(l, t0)

		var controls []*identity.Identity
		for i := 0; i < 5; i++ {
			id := w.account(t, g.New(identity.Hard))
			l.AddControl(id)
			controls = append(controls, id)
		}
		var pool []*identity.Identity
		for i := 0; i < 20; i++ {
			id := w.account(t, g.New(identity.Hard))
			l.AddIdentity(id)
			pool = append(pool, id)
		}
		var strangers []*identity.Identity // at the provider, unknown to the ledger
		for i := 0; i < 10; i++ {
			strangers = append(strangers, w.account(t, g.New(identity.Easy)))
		}

		// Crawl waves burn identities while the attacker's dump is being
		// ingested: the two must not interfere.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if id := l.Take(identity.Hard); id != nil {
					l.Burn(id, fmt.Sprintf("burn%d.test", i), i+1, "Stress",
						t0.Add(time.Duration(i)*time.Hour), crawler.CodeOKSubmission, false)
				}
			}
		}()

		// Arbitrary attacker schedule: logins against control accounts,
		// honeypot pool accounts, and unknown accounts, in any order, from
		// any IP, expected or not, split into two dumps.
		var dumps []emailprovider.Dump
		since := w.now
		for i := 0; i < int(nEvents); i++ {
			var id *identity.Identity
			switch rng.Intn(3) {
			case 0:
				id = controls[rng.Intn(len(controls))]
			case 1:
				id = pool[rng.Intn(len(pool))]
			default:
				id = strangers[rng.Intn(len(strangers))]
			}
			if rng.Intn(2) == 0 {
				m.ExpectControlLogin(id.Email) // expectation must not matter
			}
			w.now = w.now.Add(time.Duration(1+rng.Intn(100)) * time.Minute)
			w.login(t, id, []string{"IMAP", "POP3", "WEB"}[rng.Intn(3)], netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), 1}))
			if i == int(nEvents)/2 {
				dumps = append(dumps, w.p.DumpSince(since))
				since = w.now
			}
		}
		dumps = append(dumps, w.p.DumpSince(since))
		// Ingest the dumps concurrently, like overlapping dump deliveries.
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Ingest(dumps[0])
		}()
		m.Ingest(dumps[len(dumps)-1])
		wg.Wait()

		isControl := func(email string) bool {
			for _, c := range controls {
				if c.Email == email {
					return true
				}
			}
			return false
		}
		for _, a := range m.Alarms() {
			if isControl(a.Event.Account) {
				return false // control login raised an integrity alarm
			}
		}
		for _, d := range m.Detections() {
			for _, account := range d.Accounts() {
				if isControl(account) {
					return false // control login attributed as a compromise
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("control account tripped the monitor: %v", err)
	}
}
