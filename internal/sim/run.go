package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/crawler"
	"tripwire/internal/identity"
	"tripwire/internal/simclock"
	"tripwire/internal/webgen"
)

// Run executes the full pilot: provisioning, registration batches, attacker
// campaign, control logins, provider dumps, and monitoring, all on the
// virtual timeline. It returns the pilot itself for inspection.
func (p *Pilot) Run() *Pilot {
	_ = p.RunContext(context.Background())
	return p
}

// RunContext is Run with cooperative cancellation: the context is checked
// between timeline epochs — which includes every wave boundary — so a
// cancelled run stops cleanly after the epoch in flight. Completed epochs
// are untouched by cancellation: a run cancelled at any point is a prefix
// of the uncancelled run (a test pins this; epochs fire in the same order
// as serial events, so the prefix property survives parallel execution).
// On cancellation the pilot is marked Interrupted, the end-of-study
// accounting (final mail drain, missed-breach analysis) is skipped, and
// ctx's error is returned.
//
// With Config.CheckpointDir set, a cancelled run writes one resumable
// snapshot at the epoch boundary where it stopped (see WriteCheckpoint);
// a failed write is joined to ctx's error. Config.CheckpointEvery adds a
// checkpoint whenever an epoch completes a multiple of that many waves. A
// pilot built by ResumePilot first replays the checkpoint's epoch prefix
// and attests the rebuilt state against the snapshot; until then it
// writes no checkpoint of either kind, because the original run already
// covered those boundaries.
func (p *Pilot) RunContext(ctx context.Context) error {
	// The SMTP forwarding session stays open for the whole run; closing it
	// here releases the pipe and its server goroutine (a later send would
	// transparently re-dial).
	defer p.forwarder.Close()
	p.provisionUpfront()
	p.scheduleControls()
	p.scheduleBatches()
	p.scheduleBreaches()
	p.scheduleDumps()
	p.scheduleDisclosures()
	// The epoch-parallel timeline engine: keyed attacker events in one
	// epoch execute concurrently, bounded by Workers; the provider login
	// ring and the attacker record log are re-sequenced per segment.
	ep := &simclock.Epochs{
		Sched:      p.Sched,
		Workers:    p.workers(),
		Sequencers: []simclock.Sequencer{p.Provider, p.Stuffer},
	}
	defer ep.Close()
	if p.metrics != nil {
		ep.Observe = p.metrics.epochDone
	}
	for {
		// The scheduler queue holds closures over live subsystem state and
		// cannot be serialized, so resume re-derives it by replaying the
		// recorded epoch count; determinism makes the replayed prefix
		// identical to the original run, and attest proves it (catching a
		// changed seed, a changed binary, or a corrupted snapshot by naming
		// the diverging section).
		if p.resumeSnap != nil && p.epochsRun == p.replayEpochs {
			if err := p.attest(p.resumeSnap); err != nil {
				return err
			}
			p.resumeSnap = nil
		}
		if err := ctx.Err(); err != nil {
			return p.stop(err)
		}
		at, ok := p.Sched.NextAt()
		if !ok || at.After(p.Cfg.End) {
			if p.resumeSnap != nil {
				return fmt.Errorf("sim: resume: schedule ran dry after %d of %d recorded epochs (checkpoint from a different configuration?)", p.epochsRun, p.replayEpochs)
			}
			break
		}
		waves := p.wavesDone
		ep.RunEpoch()
		p.epochsRun++
		p.publishProgress()
		if every := p.Cfg.CheckpointEvery; every > 0 && p.resumeSnap == nil && p.wavesDone/every > waves/every {
			if err := p.checkpoint(); err != nil {
				return err
			}
		}
	}
	p.Clock.AdvanceTo(p.Cfg.End)
	p.drainMail()
	p.recordMisses()
	p.publishProgress()
	return nil
}

// stop ends a cancelled run at the current epoch boundary, writing the
// stop checkpoint unless a resume is still replaying.
func (p *Pilot) stop(err error) error {
	p.Interrupted = true
	p.publishProgress()
	if p.Cfg.CheckpointDir != "" && p.resumeSnap == nil {
		if werr := p.checkpoint(); werr != nil {
			return errors.Join(err, werr)
		}
	}
	return err
}

// checkpoint writes a checkpoint into Config.CheckpointDir, named by the
// completed-wave count. Called between epochs on the driver goroutine,
// where no parallel work is in flight and every subsystem is safe to
// export.
func (p *Pilot) checkpoint() error {
	path := filepath.Join(p.Cfg.CheckpointDir, fmt.Sprintf("checkpoint-%06d.twsnap", p.wavesDone))
	if err := p.WriteCheckpoint(path); err != nil {
		return fmt.Errorf("sim: checkpoint after wave %d: %w", p.wavesDone, err)
	}
	return nil
}

// scheduleDisclosures books the paper's two disclosure batches (§6.3.1:
// "most occurring on September 7th, 2016, and sites compromised after that
// date on November 4th, 2016"), notifying every detected-but-unnotified
// site each time.
func (p *Pilot) scheduleDisclosures() {
	notified := make(map[string]bool)
	for _, d := range []time.Time{date(2016, 9, 7), date(2016, 11, 4), p.Cfg.End.Add(-24 * time.Hour)} {
		if d.After(p.Cfg.End) || d.Before(p.Cfg.Start) {
			continue
		}
		p.Sched.At(d, "disclosure batch "+fmtDate(d), func(now time.Time) {
			for _, det := range p.Monitor.Detections() {
				if notified[det.Domain] {
					continue
				}
				notified[det.Domain] = true
				p.Disclosure.Notify(det.Domain)
			}
		})
	}
}

// provisionUpfront creates the monitored account population: the unused
// honeypot set plus control accounts.
func (p *Pilot) provisionUpfront() {
	half := p.Cfg.NumUnused / 2
	p.provisionIdentities(half, identity.Hard)
	p.provisionIdentities(p.Cfg.NumUnused-half, identity.Easy)
	for i := 0; i < p.Cfg.NumControls; i++ {
		id := p.gen.New(identity.Hard)
		if err := p.Provider.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
			continue
		}
		p.Ledger.AddControl(id)
		p.controlCreds[id.Email] = id.Password
	}
}

// scheduleControls books periodic control-account logins from the
// institution's own address; every one must be reported by the provider.
// The email order is pinned once here: ranging over the controlCreds map
// directly would log the control logins in a different order every run,
// breaking the reproducibility of AllLogins() for same-seed runs.
func (p *Pilot) scheduleControls() {
	if len(p.controlCreds) == 0 {
		return
	}
	emails := make([]string, 0, len(p.controlCreds))
	for email := range p.controlCreds {
		emails = append(emails, email)
	}
	sort.Strings(emails)
	for t := p.Cfg.Start.Add(p.Cfg.ControlLoginEvery); t.Before(p.Cfg.End); t = t.Add(p.Cfg.ControlLoginEvery) {
		p.Sched.At(t, "control logins", func(now time.Time) {
			for _, email := range emails {
				p.Monitor.ExpectControlLogin(email)
				_ = p.Provider.WebLogin(email, p.controlCreds[email], p.institutIP)
			}
		})
	}
}

// scheduleBatches spreads each registration batch's site visits uniformly
// over its window, grouped into fixed-size waves. A wave is one scheduler
// event that crawls its ranks in parallel (see parallel.go); the wave
// boundaries depend only on the batch's rank range — never on the worker
// count — so the schedule is identical however many workers execute it.
func (p *Pilot) scheduleBatches() {
	for _, b := range p.Cfg.Batches {
		b := b
		n := b.ToRank - b.FromRank + 1
		if n <= 0 {
			continue
		}
		step := b.Duration / time.Duration(n)
		for lo := b.FromRank; lo <= b.ToRank; lo += crawlWaveSize {
			hi := lo + crawlWaveSize - 1
			if hi > b.ToRank {
				hi = b.ToRank
			}
			wave := make([]rankAt, 0, hi-lo+1)
			for rank := lo; rank <= hi; rank++ {
				wave = append(wave, rankAt{rank: rank, at: b.Start.Add(step * time.Duration(rank-b.FromRank))})
			}
			manual := b.Manual
			p.Sched.At(wave[0].at, fmt.Sprintf("register ranks %d-%d (%s)", lo, hi, b.Name), func(now time.Time) {
				p.runWave(wave, manual, b.Name)
			})
		}
	}
}

// crawlOnce runs one automated attempt serially — collection, crawl, merge,
// and mail drain in a single step. Used outside batch waves (re-registration
// probes); the task machinery keeps its RNG streams on the same derivation
// scheme as the parallel engine.
func (p *Pilot) crawlOnce(site *webgen.Site, class identity.PasswordClass) crawler.Result {
	t := p.newTask(site, class, false, p.Clock.Now())
	t.id = p.takeIdentity(class)
	p.crawlTask(t)
	p.mergeTask(t)
	p.drainMail()
	return t.res
}

// manualFormValues fills a registration form from ground truth the way a
// human reads it off the screen: every field correctly. CSRF and CAPTCHA
// values are resolved later from the live page.
func manualFormValues(spec *webgen.FormSpec, id *identity.Identity) url.Values {
	vals := url.Values{}
	for _, f := range spec.Fields {
		switch f.Kind {
		case webgen.FieldCSRF:
			// The browser would echo it; fetch the live form for the token
			// and the captcha id.
		case webgen.FieldEmail:
			vals.Set(f.Name, id.Email)
		case webgen.FieldPassword, webgen.FieldConfirm:
			vals.Set(f.Name, id.Password)
		case webgen.FieldUsername:
			vals.Set(f.Name, id.Username)
		case webgen.FieldFirstName:
			vals.Set(f.Name, id.FirstName)
		case webgen.FieldLastName:
			vals.Set(f.Name, id.LastName)
		case webgen.FieldFullName:
			vals.Set(f.Name, id.FullName())
		case webgen.FieldZip:
			vals.Set(f.Name, id.Zip)
		case webgen.FieldPhone:
			vals.Set(f.Name, id.Phone)
		case webgen.FieldDOB:
			vals.Set(f.Name, id.Birthday.Format("01/02/2006"))
		case webgen.FieldState:
			vals.Set(f.Name, "CA")
		case webgen.FieldTOS:
			vals.Set(f.Name, "on")
		case webgen.FieldCaptcha:
			// Humans solve their own CAPTCHAs; resolved from the live page.
		}
	}
	return vals
}

// completeStep2 fills the second page of a multi-stage registration the way
// a human would: every field correctly, checkboxes checked.
func (p *Pilot) completeStep2(b *browser.Client, site *webgen.Site, step2 *browser.Page) {
	for _, form := range step2.Forms() {
		sub := form.Fill()
		for _, fld := range form.Fields {
			switch fld.Type {
			case "hidden", "submit":
			case "checkbox":
				sub.Check(fld.Name)
			default:
				sub.Set(fld.Name, "Manual Entry")
			}
		}
		if _, err := b.Submit(sub); err == nil {
			return
		}
	}
}

// recordMisses captures breached sites that never tripped the monitor —
// the paper's §6.2 undetected-compromise analysis.
func (p *Pilot) recordMisses() {
	for domain := range p.Campaign.Breaches() {
		if _, ok := p.Monitor.Detection(domain); !ok {
			p.MissedBreaches = append(p.MissedBreaches, domain)
		}
	}
}

// scheduleDumps books the provider's sporadic login-information dumps.
func (p *Pilot) scheduleDumps() {
	for _, d := range p.Cfg.DumpDates {
		d := d
		if d.After(p.Cfg.End) {
			continue
		}
		p.Sched.At(d, "provider dump "+fmtDate(d), func(now time.Time) {
			events := p.Provider.DumpSince(p.lastDump)
			newly := p.Monitor.Ingest(events)
			for _, domain := range newly {
				p.DetectionTimes[domain] = now
				if det, ok := p.Monitor.Detection(domain); ok {
					p.emit(Event{Kind: EventDetection, At: now, Detection: snapshotDetection(det)})
				}
			}
			p.lastDump = now
			p.Provider.PurgeExpired()
			if p.Cfg.ReRegisterDetected {
				p.reRegisterDetected(newly, now)
			}
		})
	}
}

// reRegisterDetected registers fresh accounts at newly detected sites (the
// paper did this in mid-May 2016 to see whether sites had recovered).
func (p *Pilot) reRegisterDetected(domains []string, now time.Time) {
	for _, domain := range domains {
		site, ok := p.Universe.Site(domain)
		if !ok || !site.Eligible() {
			continue
		}
		p.Sched.After(30*24*time.Hour, "re-register "+domain, func(t time.Time) {
			p.crawlOnce(site, identity.Hard)
		})
	}
}

// scheduleBreaches books the attacker's site compromises: some at sites
// where Tripwire holds accounts (detectable), some elsewhere (§6.2).
func (p *Pilot) scheduleBreaches() {
	rng := rand.New(rand.NewSource(p.Cfg.Seed + 9))
	window := p.Cfg.BreachWindowEnd.Sub(p.Cfg.BreachWindowStart)
	breached := make(map[string]bool)

	for i := 0; i < p.Cfg.BreachRegistered; i++ {
		at := p.Cfg.BreachWindowStart.Add(time.Duration(rng.Int63n(int64(window))))
		p.Sched.At(at, "breach (registered site)", func(now time.Time) {
			domain := p.pickBreachTarget(rng, breached, true)
			if domain == "" {
				return
			}
			breached[domain] = true
			p.breachSite(domain, now)
		})
	}
	for i := 0; i < p.Cfg.BreachUnregistered; i++ {
		at := p.Cfg.BreachWindowStart.Add(time.Duration(rng.Int63n(int64(window))))
		p.Sched.At(at, "breach (unregistered site)", func(now time.Time) {
			domain := p.pickBreachTarget(rng, breached, false)
			if domain == "" {
				return
			}
			breached[domain] = true
			p.breachSite(domain, now)
		})
	}
}

// pickBreachTarget selects a random un-breached site; withAccount selects
// between sites where Tripwire's account actually exists and ones where it
// does not.
func (p *Pilot) pickBreachTarget(rng *rand.Rand, breached map[string]bool, withAccount bool) string {
	var cands []string
	if withAccount {
		for _, domain := range p.Ledger.Sites() {
			if breached[domain] {
				continue
			}
			if p.tripwireAccountExists(domain) {
				cands = append(cands, domain)
			}
		}
	} else {
		// Sample ranks instead of snapshotting Sites(): the latter would
		// materialize the whole universe just to breach a handful of sites.
		n := p.Universe.NumSites()
		for tries := 0; tries < 200 && len(cands) < 30; tries++ {
			s, _ := p.Universe.SiteByRank(rng.Intn(n) + 1)
			if !breached[s.Domain] && !p.tripwireAccountExists(s.Domain) {
				cands = append(cands, s.Domain)
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	// Ledger.Sites() iterates a map: sort so runs are reproducible.
	sort.Strings(cands)
	return cands[rng.Intn(len(cands))]
}

// tripwireAccountExists reports whether a Tripwire identity actually has a
// stored account at domain (the crawler may have believed wrongly).
func (p *Pilot) tripwireAccountExists(domain string) bool {
	st := p.Universe.Store(domain)
	for _, reg := range p.Ledger.SiteRegistrations(domain) {
		if _, ok := st.Lookup(reg.Identity.Username); ok {
			return true
		}
		local, _, _ := strings.Cut(reg.Identity.Email, "@")
		if _, ok := st.Lookup(local); ok {
			return true
		}
	}
	return false
}

// breachSite populates the organic user base and hands the site to the
// attacker campaign.
func (p *Pilot) breachSite(domain string, now time.Time) {
	st := p.Universe.Store(domain)
	p.populateOrganics(st, domain)
	p.Campaign.Breach(domain, st, now)
}

// organicDomains are where the synthetic organic population's email lives;
// a share is at the monitored provider (those addresses do not exist there,
// so stuffing them fails — realistic noise).
var organicDomains = []string{
	ProviderDomain, "othermail.test", "webpost.test", "mailbox-corp.test",
	"fastmail-like.test",
}

// populateOrganics seeds a site's store with organic users so breached
// dumps are mostly not Tripwire's accounts.
func (p *Pilot) populateOrganics(st *webgen.Store, domain string) {
	rng := rand.New(rand.NewSource(p.Cfg.Seed + int64(len(domain))*31))
	words := identity.DictionaryWords()
	n := p.Cfg.OrganicUsersMin
	if spread := p.Cfg.OrganicUsersMax - p.Cfg.OrganicUsersMin; spread > 0 {
		n += rng.Intn(spread)
	}
	for i := 0; i < n; i++ {
		p.organicSeq++
		user := fmt.Sprintf("user%07d", p.organicSeq)
		email := fmt.Sprintf("%s@%s", user, organicDomains[rng.Intn(len(organicDomains))])
		var pw string
		if rng.Float64() < 0.6 {
			w := words[rng.Intn(len(words))]
			pw = strings.ToUpper(w[:1]) + w[1:] + string(rune('0'+rng.Intn(10)))
		} else {
			pw = randomPassword(rng)
		}
		salt := fmt.Sprintf("osalt%07d", p.organicSeq)
		_, _ = st.Create(user, email, pw, salt, p.Clock.Now())
	}
}

func randomPassword(rng *rand.Rand) string {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	n := 8 + rng.Intn(5)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alpha[rng.Intn(len(alpha))])
	}
	return b.String()
}
