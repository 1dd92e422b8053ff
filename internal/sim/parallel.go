package sim

import (
	"net/netip"
	"runtime"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/core"
	"tripwire/internal/crawler"
	"tripwire/internal/identity"
	"tripwire/internal/par"
	"tripwire/internal/webgen"
	"tripwire/internal/xrand"
)

// The parallel crawl engine shards a wave of registrations across
// Config.Workers goroutines (par.For) while keeping runs bit-identical for a
// given seed regardless of worker count. Determinism rests on three rules:
//
//  1. Everything order-sensitive is serial. Task collection, identity
//     allocation (the ledger pool is FIFO), result merging, and mail
//     draining happen on the scheduler goroutine in rank order, before and
//     after the parallel section.
//  2. Everything parallel is self-contained. Each crawl task derives its
//     fault RNG, CAPTCHA-solver stream, proxy-exit RNG, and virtual-time
//     account from (seed, rank, task sequence number) via xrand.Mix, owns
//     browser and cookie jar, and during the wave no two tasks share a
//     site domain — so a task's outcome is a pure function of the task.
//  3. Shared substrate is safe and order-free. The webgen universe, email
//     provider, and mail server are mutex-protected, and their observable
//     state (per-domain token counters, per-account inboxes) does not
//     depend on cross-site interleaving.
const crawlWaveSize = 64

// RNG stream tags: one independent derived stream per consumer so no two
// draws within a task are correlated.
const (
	streamFault int64 = iota + 1
	streamSolver
	streamProxy
)

// workers resolves Config.Workers, defaulting to GOMAXPROCS.
func (p *Pilot) workers() int {
	if p.Cfg.Workers > 0 {
		return p.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// rankAt pairs a rank with its nominal visit time inside a batch window.
type rankAt struct {
	rank int
	at   time.Time
}

// crawlTask is one registration attempt: inputs are fixed serially before
// the parallel section, outputs are written only by the worker that owns
// the task and read only after the wave barrier.
type crawlTask struct {
	seq    int64 // global creation sequence number, salt for RNG derivation
	site   *webgen.Site
	class  identity.PasswordClass
	manual bool
	at     time.Time // nominal visit time
	id     *identity.Identity

	res  crawler.Result
	done time.Time     // at + accumulated rate-limit delays
	skip bool          // manual attempt aborted before exposure
	busy time.Duration // wall time of the crawl, recorded only when metered
}

// newTask mints a task. Must be called serially: the sequence number keys
// the task's RNG streams and so must be assigned in deterministic order.
func (p *Pilot) newTask(site *webgen.Site, class identity.PasswordClass, manual bool, at time.Time) *crawlTask {
	p.taskSeq++
	return &crawlTask{seq: p.taskSeq, site: site, class: class, manual: manual, at: at}
}

// taskSeed derives the seed for one of a task's RNG streams via the shared
// splitmix64 mixer, so per-task RNGs are independent of each other and of
// every package-level RNG seeded with small offsets of Seed.
func (p *Pilot) taskSeed(t *crawlTask, stream int64) int64 {
	return xrand.Mix(p.Cfg.Seed, int64(t.site.Rank), t.seq<<8|stream)
}

// taskBrowser returns the task's private browser session, routed through
// institution proxy exits drawn from the task's own RNG stream.
func (p *Pilot) taskBrowser(t *crawlTask) *browser.Client {
	rng := xrand.New(p.taskSeed(t, streamProxy))
	return browser.New(browser.WithTransport(&browser.ProxyTransport{
		Base:    &browser.HandlerTransport{Handler: p.Universe},
		Latency: p.Cfg.NetLatency,
		NextIP: func(host string) netip.Addr {
			return p.Space.SampleIPIn(rng, "US")
		},
	}))
}

// crawlTask runs the crawl part of one task — everything that may execute
// concurrently with other tasks. Ledger writes and attempt accounting are
// deferred to mergeTask. The crawler lends the task's session its parse
// storage for the attempt.
func (p *Pilot) crawlTask(t *crawlTask) {
	if t.manual {
		p.crawlManual(t)
		return
	}
	var slept time.Duration
	env := &crawler.Env{
		Rng:    xrand.New(p.taskSeed(t, streamFault)),
		Solver: p.Solver.Derive(p.taskSeed(t, streamSolver)),
		Sleep:  func(d time.Duration) { slept += d },
	}
	b := p.taskBrowser(t)
	t.res = p.Crawler.RegisterWith(env, b, "http://"+t.site.Domain+"/", t.id)
	t.done = t.at.Add(slept)
}

// mergeTask applies one finished task to the shared record: burn or return
// the identity and append the attempt. Called serially in rank order.
func (p *Pilot) mergeTask(t *crawlTask) {
	if t.skip {
		return
	}
	att := Attempt{
		Domain:   t.site.Domain,
		Rank:     t.site.Rank,
		Class:    t.class,
		Code:     t.res.Code,
		Exposed:  t.res.Exposed,
		Manual:   t.manual,
		When:     t.done,
		PageLoad: t.res.PageLoads,
	}
	if t.manual {
		att.Email = t.id.Email
	}
	if t.res.Exposed {
		att.Email = t.id.Email
		p.Ledger.Burn(t.id, t.site.Domain, t.site.Rank, t.site.Category, t.done, t.res.Code, t.manual)
	} else {
		p.Ledger.Return(t.id)
	}
	p.Attempts = append(p.Attempts, att)
}

// collectTasks builds the wave's task list serially, applying the same
// eligibility and dedup rules the serial engine used per rank.
func (p *Pilot) collectTasks(ranks []rankAt, manual bool) []*crawlTask {
	var tasks []*crawlTask
	for _, ra := range ranks {
		site, ok := p.Universe.SiteByRank(ra.rank)
		if !ok {
			continue
		}
		if manual && !site.Eligible() {
			continue
		}
		if p.alreadyRegistered(site.Domain) {
			continue
		}
		class := identity.Hard
		if manual {
			class = identity.Easy
		}
		tasks = append(tasks, p.newTask(site, class, manual, ra.at))
	}
	return tasks
}

// alreadyRegistered reports whether a believed-successful registration from
// an earlier batch already covers domain.
func (p *Pilot) alreadyRegistered(domain string) bool {
	for _, reg := range p.Ledger.SiteRegistrations(domain) {
		if reg.Status >= core.StatusOKSubmission {
			return true
		}
	}
	return false
}

// runPhase executes one phase of a wave: serial identity allocation (the
// FIFO pool order must not depend on crawl completion order), the parallel
// crawl, a serial rank-order merge, and one mail drain after every burn in
// the phase has landed in the ledger.
func (p *Pilot) runPhase(tasks []*crawlTask) {
	if len(tasks) == 0 {
		return
	}
	for _, t := range tasks {
		t.id = p.takeIdentity(t.class)
	}
	workers := p.workers()
	if p.metrics == nil {
		par.For(workers, len(tasks), func(i int) {
			p.crawlTask(tasks[i])
		})
	} else {
		// Metered variant: per-task wall time feeds the duration histogram
		// and a busy total that phaseDone turns into worker utilization.
		// Each task keeps its own duration and the total is summed after
		// the join, so the closure captures nothing the unmetered one does
		// not. The extra cost is two time.Now calls and the histogram's
		// atomic adds per task — nothing the crawl itself can observe.
		phaseStart := time.Now()
		par.For(workers, len(tasks), func(i int) {
			t := tasks[i]
			start := time.Now()
			p.crawlTask(t)
			t.busy = time.Since(start)
			p.metrics.taskDur.ObserveDuration(t.busy)
		})
		var busy time.Duration
		for _, t := range tasks {
			busy += t.busy
		}
		p.metrics.phaseDone(len(tasks), busy, time.Since(phaseStart), min(workers, len(tasks)))
	}
	for _, t := range tasks {
		p.mergeTask(t)
	}
	p.drainMail()
}

// runWave registers one wave of ranks: the hard-password phase first, then
// an easy-password follow-up phase at sites whose hard attempt appeared to
// succeed (paper §4.1.2). A site's easy eligibility depends only on its own
// hard result, so the phase split preserves per-site semantics.
func (p *Pilot) runWave(ranks []rankAt, manual bool, batch string) {
	timer := p.metrics.waveStart()
	before := len(p.Attempts)
	tasks := p.collectTasks(ranks, manual)
	p.runPhase(tasks)
	if !manual {
		var easy []*crawlTask
		for _, t := range tasks {
			if t.res.Code == crawler.CodeOKSubmission {
				easy = append(easy, p.newTask(t.site, identity.Easy, false, t.done))
			}
		}
		p.runPhase(easy)
	}
	p.metrics.waveDone(timer)
	// Wave events are exclusive scheduler events (they mutate p.Attempts),
	// so the counter needs no synchronization. It names checkpoint files:
	// wave boundaries depend only on batch rank ranges, never on workers.
	p.wavesDone++
	if len(ranks) > 0 {
		p.emit(Event{
			Kind:     EventWaveDone,
			At:       p.Clock.Now(),
			Batch:    batch,
			FromRank: ranks[0].rank,
			ToRank:   ranks[len(ranks)-1].rank,
			Attempts: len(p.Attempts) - before,
			Manual:   manual,
		})
	}
}

// crawlManual emulates the authors registering by hand at eligible
// English-language top sites: a human reads the form perfectly, solves any
// CAPTCHA, and completes multi-stage flows. Only the crawler's heuristics
// are bypassed — the same HTTP endpoints are exercised.
func (p *Pilot) crawlManual(t *crawlTask) {
	site, id := t.site, t.id
	b := p.taskBrowser(t)
	defer b.Release()
	spec := p.Universe.FormSpec(site)
	vals := manualFormValues(spec, id)
	page, err := b.Get("http://" + site.Domain + site.RegPath)
	if err != nil || !page.OK() {
		t.skip = true
		return
	}
	// Copy hidden inputs (CSRF, captcha id) from the live form. A human's
	// browser executes scripts and renders JS-assembled forms, so for
	// JSForm sites (where the static DOM is empty) we recover the same
	// values from ground truth — the human sees them on screen.
	issuer := p.Universe.Issuer(site)
	for _, form := range page.Forms() {
		for _, fld := range form.Fields {
			if fld.Type == "hidden" && fld.Name != "" {
				vals.Set(fld.Name, fld.Value)
			}
		}
	}
	if f, ok := spec.Field(webgen.FieldCSRF); ok && vals.Get(f.Name) == "" {
		vals.Set(f.Name, webgen.CSRFToken(site.Domain))
	}
	if site.Captcha != captcha.None {
		ch := issuer.Issue(site.Captcha, xrand.New(int64(site.Rank)))
		if got := vals.Get("captcha_id"); got != "" {
			ch = captcha.Challenge{ID: got, Kind: site.Captcha}
		} else {
			vals.Set("captcha_id", ch.ID)
		}
		if f, ok := spec.Field(webgen.FieldCaptcha); ok {
			vals.Set(f.Name, issuer.Answer(ch))
		}
		if site.Captcha == captcha.Interactive {
			vals.Set("captcha_token", issuer.Answer(ch))
		}
	}
	resp, err := b.Post("http://"+site.Domain+site.RegPath, vals)
	t.res = crawler.Result{Code: crawler.CodeOKSubmission, Site: site.Domain, Exposed: err == nil}
	// Multi-stage: the human reads page two and completes it.
	if err == nil && site.MultiStage {
		p.completeStep2(b, site, resp)
	}
	t.done = t.at
}
