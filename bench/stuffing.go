package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"tripwire/internal/attacker"
	"tripwire/internal/core"
	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/geo"
	"tripwire/internal/identity"
	"tripwire/internal/imap"
	"tripwire/internal/obs"
	"tripwire/internal/pop3"
	"tripwire/internal/simclock"
	"tripwire/internal/webgen"
)

const stuffProvider = "bigmail.test"

// stuffing is the attacker and monitor half of a pilot without the crawl:
// breached plaintext dumps of honey accounts are stuffed over IMAP and POP3
// on the epoch engine, wired as sim.NewPilot wires the pilot's attacker,
// while the benchmark pulls a provider dump into the monitor every few
// virtual weeks. Never-registered accounts at the provider are the
// integrity controls: any login to one raises an alarm.
type stuffing struct {
	tr        *tracer
	sz        sizes
	start     time.Time
	reg       *obs.Registry
	provider  *emailprovider.Provider
	ledger    *core.Ledger
	monitor   *core.Monitor
	campaign  *attacker.Campaign
	epochs    *simclock.Epochs
	stores    map[string]*webgen.Store
	events    int
	epochWall []float64 // traced run: seconds per executed epoch
}

func setupStuffing(seed int64, sz sizes, tr *tracer) (instance, error) {
	start := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, sz.StuffDays)
	clock := simclock.New(start)
	sched := simclock.NewScheduler(clock)

	st := &stuffing{tr: tr, sz: sz, start: start, stores: make(map[string]*webgen.Store)}
	st.provider = emailprovider.New(stuffProvider)
	st.provider.Now = clock.Now
	st.ledger = core.NewLedger()
	st.monitor = core.NewMonitor(st.ledger, start)
	stuffer := attacker.NewStuffer(imap.NewServer(st.provider), attacker.NewProxyPool(geo.NewSpace(), seed+2, 0.25), clock.Now)
	stuffer.UsePOP(pop3.NewServer(st.provider.POPBackend()), 0.08, seed+7)
	acfg := attacker.DefaultCampaignConfig(end)
	acfg.Seed = seed + 3
	st.campaign = attacker.NewCampaign(acfg, sched, stuffer, st.provider)

	gen := identity.NewGenerator(stuffProvider, seed+1)
	for d := 0; d < sz.StuffDomains; d++ {
		domain := fmt.Sprintf("stuffed-site%03d.test", d)
		store := webgen.NewStore(webgen.StorePlaintext)
		for a := 0; a < sz.StuffAccounts; a++ {
			id := gen.New(identity.Easy)
			if err := st.provider.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
				return nil, err
			}
			local, _, _ := strings.Cut(id.Email, "@")
			if _, err := store.Create(local, id.Email, id.Password, "", start); err != nil {
				return nil, err
			}
			st.ledger.Burn(id, domain, d+1, "benchmark", start, crawler.CodeOKSubmission, false)
		}
		st.stores[domain] = store
		st.campaign.Breach(domain, store, start.Add(time.Duration(d%36)*time.Hour))
	}
	for i := 0; i < sz.StuffControls; i++ {
		id := gen.New(identity.Hard)
		if err := st.provider.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
			return nil, err
		}
		st.ledger.AddIdentity(id)
	}

	st.epochs = &simclock.Epochs{
		Sched:      sched,
		Workers:    runtime.GOMAXPROCS(0),
		Sequencers: []simclock.Sequencer{st.provider, stuffer},
		Tune:       st.campaign.TuneEpoch,
	}
	if tr != nil {
		st.reg = obs.New()
		am := attacker.NewMetrics(st.reg)
		stuffer.Metrics, st.campaign.Metrics = am, am
		st.provider.Metrics = st.provider.NewMetrics(st.reg)
		st.monitor.Metrics = st.monitor.NewMonitorMetrics(st.reg)
		st.epochs.Observe = func(es simclock.EpochStats) {
			tr.record("simclock", "epoch", time.Now().Add(-es.Elapsed), es.Elapsed, 1)
			tr.add("simclock.busy_s", es.Busy.Seconds())
			st.epochWall = append(st.epochWall, es.Elapsed.Seconds())
		}
	}
	return st, nil
}

func (st *stuffing) run(ctx context.Context) {
	defer st.epochs.Close()
	since := st.start
	for day := st.sz.StuffDumpEvery; day <= st.sz.StuffDays; day += st.sz.StuffDumpEvery {
		at := st.start.AddDate(0, 0, day)
		end := st.tr.timed("simclock.run_s", "simclock", "Epochs.RunUntil")
		st.events += st.epochs.RunUntil(at)
		end()
		end = st.tr.timed("emailprovider.dump_s", "emailprovider", "Provider.DumpSince")
		dump := st.provider.DumpSince(since)
		end()
		end = st.tr.timed("core.ingest_s", "core", "Monitor.Ingest")
		st.monitor.Ingest(dump)
		end()
		since = at
	}
}

func (st *stuffing) verify(c *checker) string {
	c.check("zero integrity alarms", len(st.monitor.Alarms()) == 0)
	c.check("every control account is still unused", st.ledger.UnusedCount() == st.sz.StuffControls)
	breached := st.campaign.Breaches()
	c.check(fmt.Sprintf("all %d dumps were breached", len(st.stores)), len(breached) == len(st.stores))
	dets := st.monitor.Detections()
	c.check(fmt.Sprintf("every breached site is detected (%d of %d)", len(dets), len(breached)), len(dets) == len(breached))
	h := sha256.New()
	for _, d := range dets {
		_, ok := breached[d.Domain]
		c.check("detection "+d.Domain+" is a breached site", ok)
		fmt.Fprintf(h, "detection %s first=%s last=%s accessed=%d/%d\n", d.Domain,
			d.FirstSeen.Format(time.RFC3339Nano), d.LastSeen.Format(time.RFC3339Nano), d.AccountsAccessed, d.AccountsRegistered)
	}
	for _, ev := range st.provider.AllLogins() {
		fmt.Fprintf(h, "login %s %s %s %s\n", ev.Account, ev.Time.Format(time.RFC3339Nano), ev.IP, ev.Method)
	}
	return c.digest(h)
}

func (st *stuffing) items() float64 { return float64(st.events) }

func (st *stuffing) layers(tr *tracer) {
	tr.addRegistry(st.reg)
	tr.set("timeline.events", float64(st.events))
	tr.set("simclock.epochs", float64(len(st.epochWall)))
	tr.set("simclock.epoch_p99_ms", 1e3*percentile(st.epochWall, 99))
	recrack(tr, func(d string) *webgen.Store { return st.stores[d] }, st.campaign.Breaches())
}

func (st *stuffing) close() {}
