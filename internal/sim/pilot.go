package sim

import (
	"math/rand"
	"net"
	"net/netip"
	"os"
	"strings"
	"sync"
	"time"

	"tripwire/internal/attacker"
	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/core"
	"tripwire/internal/crawler"
	"tripwire/internal/disclosure"
	"tripwire/internal/dnssim"
	"tripwire/internal/emailprovider"
	"tripwire/internal/geo"
	"tripwire/internal/identity"
	"tripwire/internal/imap"
	"tripwire/internal/mailserv"
	"tripwire/internal/pop3"
	"tripwire/internal/simclock"
	"tripwire/internal/snapshot"
	"tripwire/internal/webgen"
)

// ProviderDomain is the partner email provider's mail domain.
const ProviderDomain = "bigmail.test"

// RelayDomain is the innocuous Tripwire-controlled domain forwarding
// addresses point at (paper §4.2: forwarding addresses are visible in the
// provider's web UI, so they must not advertise the study).
const RelayDomain = "relay.blueharbor-media.test"

// Attempt records one crawl attempt for funnel/table accounting.
type Attempt struct {
	Domain   string
	Rank     int
	Class    identity.PasswordClass
	Code     crawler.Code
	Exposed  bool
	Manual   bool
	When     time.Time
	Email    string // identity email when exposed, else ""
	PageLoad int
}

// Pilot wires every subsystem together for one study run.
type Pilot struct {
	Cfg Config

	Clock      *simclock.Clock
	Sched      *simclock.Scheduler
	Universe   *webgen.Universe
	Provider   *emailprovider.Provider
	Mail       *mailserv.Server
	Ledger     *core.Ledger
	Monitor    *core.Monitor
	Space      *geo.Space
	Pool       *attacker.ProxyPool
	Stuffer    *attacker.Stuffer
	Campaign   *attacker.Campaign
	Crawler    *crawler.Crawler
	Solver     *captcha.Service
	Disclosure *disclosure.Campaign
	DNS        *dnssim.Resolver

	gen        *identity.Generator
	rng        *rand.Rand
	verifier   *browser.Client // clicks verification links
	forwarder  *smtpForwarder
	institutIP netip.Addr
	taskSeq    int64 // crawl-task creation counter (see parallel.go)
	metrics    *pilotMetrics

	Attempts     []Attempt
	controlCreds map[string]string // control email -> password
	mailCursor   int
	lastDump     time.Time
	organicSeq   int

	// Checkpoint/resume progress markers. epochsRun counts completed
	// timeline epochs — the replay unit of resume: an epoch's boundary is a
	// pure function of the schedule, never of worker count, so "run N
	// epochs" lands every run in the same global state. wavesDone counts
	// completed registration waves; it names checkpoint files and drives
	// the CheckpointEvery cadence.
	epochsRun uint64
	wavesDone int
	// replayEpochs/resumeSnap are set by ResumePilot: RunContext first
	// re-executes replayEpochs epochs, then attests the rebuilt state
	// against resumeSnap section by section and clears it before
	// continuing.
	replayEpochs uint64
	resumeSnap   *snapshot.File
	// eagerAccounts makes provisionIdentities create every provider
	// account up front instead of leaving it to the deriver. Only the
	// lazy/eager equivalence test sets it, as its reference path.
	eagerAccounts bool

	// prog mirrors the driver-owned progress counters behind atomics so
	// Status/HTTP readers never race the run (see progress.go).
	prog progressMirror

	// DetectionTimes records when the monitor first reported each site.
	DetectionTimes map[string]time.Time
	// MissedBreaches are breached sites that produced no detection.
	MissedBreaches []string

	// OnEvent, when non-nil, receives progress events (wave completions,
	// detections) synchronously on the scheduler goroutine. Handlers must
	// not call back into the pilot.
	OnEvent func(Event)
	// Interrupted is set when RunContext stopped early on a cancelled
	// context; completed waves remain valid and deterministic.
	Interrupted bool
}

// NewPilot builds a fully wired pilot for cfg. Call Run to execute it.
func NewPilot(cfg Config) *Pilot {
	clock := simclock.New(cfg.Start)
	sched := simclock.NewScheduler(clock)

	p := &Pilot{
		Cfg:            cfg,
		Clock:          clock,
		Sched:          sched,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		gen:            identity.NewGenerator(ProviderDomain, cfg.Seed+1),
		controlCreds:   make(map[string]string),
		DetectionTimes: make(map[string]time.Time),
		lastDump:       cfg.Start,
	}

	// Synthetic web.
	p.Universe = webgen.Generate(cfg.Web)
	p.Universe.Now = clock.Now

	// Email provider.
	p.Provider = emailprovider.New(ProviderDomain)
	p.Provider.Now = clock.Now
	p.Provider.Retention = cfg.Retention
	if cfg.LogSpillDir != "" && cfg.LogResidentBudget > 0 {
		// Cold-tier spilling for the login log. Directory creation is
		// best-effort here; an unwritable directory surfaces as SpillErr on
		// the first spill, which checkpointing checks.
		_ = os.MkdirAll(cfg.LogSpillDir, 0o755)
		p.Provider.SpillLoginLog(cfg.LogSpillDir, cfg.LogResidentBudget)
	}
	p.Universe.Mailer = p.Provider
	// Accounts the generator has allocated are a pure function of their
	// address; the provider resolves them on demand instead of storing 10M
	// pristine rows (eager mode creates the rows but they still derive —
	// and elide — identically).
	p.Provider.SetDeriver(&accountDeriver{gen: p.gen})

	// Tripwire mail server, fed by the provider's forwarding over real
	// SMTP connections.
	p.Mail = mailserv.NewServer()
	p.Mail.Now = clock.Now
	p.forwarder = &smtpForwarder{front: mailserv.NewSMTPServer(p.Mail)}
	p.Provider.Forward = p.forwarder.send

	// Ledger and monitor. The ledger's pool spans materialize identities
	// through the generator, and unused-set membership inverts addresses
	// back to ranks arithmetically.
	p.Ledger = core.NewLedger()
	p.Ledger.SetDeriver(p.gen.At)
	p.Ledger.SetRankFn(p.gen.RankOf)
	p.Monitor = core.NewMonitor(p.Ledger, cfg.Start)

	// Attacker: proxy network over the geo space, stuffing over IMAP.
	p.Space = geo.NewSpace()
	p.Pool = attacker.NewProxyPool(p.Space, cfg.Seed+2, 0.25)
	imapSrv := imap.NewServer(p.Provider)
	p.Stuffer = attacker.NewStuffer(imapSrv, p.Pool, clock.Now)
	// A minority of attacker tooling collects over POP3 (§4.2 dumps list
	// "IMAP, POP, etc."; §6.4: access is "typically via IMAP").
	p.Stuffer.UsePOP(pop3.NewServer(p.Provider.POPBackend()), 0.08, cfg.Seed+7)
	acfg := attacker.DefaultCampaignConfig(cfg.End)
	acfg.Seed = cfg.Seed + 3
	p.Campaign = attacker.NewCampaign(acfg, sched, p.Stuffer, p.Provider)

	// Crawler with CAPTCHA solving service and virtual-time rate limiting.
	p.Solver = captcha.NewService(cfg.CaptchaImageErr, cfg.CaptchaKnowledgeErr, cfg.Seed+4)
	ccfg := crawler.DefaultConfig()
	ccfg.FaultRate = cfg.CrawlerFaultRate
	ccfg.Seed = cfg.Seed + 5
	if cfg.UseLanguagePacks {
		ccfg.Packs = crawler.BuiltinPacks()
	}
	if cfg.UseSearchEngine {
		ccfg.SearchFn = p.Universe.SearchRegistrationPages
	}
	ccfg.MultiStageSupport = cfg.UseMultiStage
	p.Crawler = crawler.New(ccfg, p.Solver)
	// Rate-limit delays are charged to each crawl task's private virtual
	// time account (parallel.go), not to the global clock: a wave of
	// concurrent crawls must not move time for everyone else.

	// Research proxy IPs: institution-owned, as in §4.3.2.
	p.institutIP = p.Space.SampleIPIn(rand.New(rand.NewSource(cfg.Seed+6)), "US")

	p.verifier = browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: p.Universe}))
	p.Disclosure = disclosure.NewCampaign(p.Universe, sched)
	// Deliverability checks go through the synthetic DNS, as the real
	// process discovered site J's missing MX record through DNS.
	p.DNS = dnssim.New(p.Universe, p.Space)
	p.DNS.AddMX(ProviderDomain, "mx."+ProviderDomain)
	p.DNS.AddMX(RelayDomain, "mx."+RelayDomain)
	p.Disclosure.DNS = p.DNS

	// Observability: thread the registry through every subsystem. All
	// wiring is nil-safe, so a run without metrics pays only nil checks.
	if r := cfg.Metrics; r != nil {
		p.metrics = p.newPilotMetrics(r)
		p.Crawler.Metrics = crawler.NewMetrics(r)
		p.Universe.Observe(r)
		p.Provider.Metrics = p.Provider.NewMetrics(r)
		am := attacker.NewMetrics(r)
		p.Stuffer.Metrics = am
		p.Campaign.Metrics = am
		p.Monitor.Metrics = p.Monitor.NewMonitorMetrics(r)
	}
	return p
}

// smtpForwarder pushes provider-forwarded mail through a real SMTP session
// over an in-memory duplex connection. The session is persistent: dialed on
// first use and reused for every message, like a real MTA holding a
// connection open to a busy destination. One message used to cost a fresh
// pipe, server goroutine, greeting/EHLO exchange, and four bufio buffers;
// amortizing them matters because crawl workers trigger forwarding
// concurrently on every registration. The mutex serializes sends, which is
// also what keeps interleaved SMTP commands from corrupting the session.
type smtpForwarder struct {
	front *mailserv.SMTPServer

	mu  sync.Mutex
	cli *mailserv.SMTPClient
}

func (f *smtpForwarder) send(from, to, subject, body string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cli == nil {
		if err := f.dialLocked(); err != nil {
			return err
		}
	}
	err := f.cli.Send(from, to, subject, body)
	if err != nil {
		// The session may be out of sync (e.g. a rejected DATA mid-message):
		// drop it and retry the message once on a fresh one, so a single
		// refused delivery does not poison every later forward.
		f.closeLocked()
		if derr := f.dialLocked(); derr != nil {
			return err
		}
		return f.cli.Send(from, to, subject, body)
	}
	return nil
}

// dialLocked establishes the session: an in-memory pipe with the SMTP
// front end serving one long-lived connection on its own goroutine.
func (f *smtpForwarder) dialLocked() error {
	cliConn, srvConn := net.Pipe()
	go func() {
		_ = f.front.ServeConn(srvConn)
		srvConn.Close()
	}()
	cli, err := mailserv.DialSMTP(cliConn)
	if err != nil {
		cliConn.Close()
		return err
	}
	f.cli = cli
	return nil
}

// closeLocked quits the session; the server goroutine exits with it.
func (f *smtpForwarder) closeLocked() {
	if f.cli != nil {
		_ = f.cli.Close()
		f.cli = nil
	}
}

// Close shuts the forwarding session down. Safe to call repeatedly; a later
// send re-dials transparently.
func (f *smtpForwarder) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeLocked()
}

// takeIdentity pops an identity from the pool, provisioning more at the
// provider on demand.
func (p *Pilot) takeIdentity(class identity.PasswordClass) *identity.Identity {
	if id := p.Ledger.Take(class); id != nil {
		return id
	}
	p.provisionIdentities(200, class)
	return p.Ledger.Take(class)
}

// accountDeriver adapts the identity generator to the provider's lazy
// account interface: an address is covered once its rank has been
// allocated, and its pristine account state — name, password, forwarding —
// is a pure function of that rank.
type accountDeriver struct{ gen *identity.Generator }

func (a *accountDeriver) DeriveAccount(email string) (emailprovider.DerivedAccount, bool) {
	rank, ok := a.gen.RankOf(email)
	if !ok || identity.IndexOf(rank) >= a.gen.Allocated(identity.ClassOf(rank)) {
		return emailprovider.DerivedAccount{}, false
	}
	id := a.gen.At(rank)
	return emailprovider.DerivedAccount{
		Name:      id.FullName(),
		Password:  id.Password,
		ForwardTo: forwardAddress(email),
	}, true
}

func (a *accountDeriver) DerivedCount() int64 {
	return a.gen.Allocated(identity.Hard) + a.gen.Allocated(identity.Easy)
}

// provisionIdentities reserves n fresh identities of class and extends the
// ledger pool with their index span. That is all: the identities' provider
// accounts exist implicitly through the deriver until something deviates
// them. With eagerAccounts (tests only) the accounts are additionally
// materialized up front; both modes export byte-identical state.
func (p *Pilot) provisionIdentities(n int, class identity.PasswordClass) {
	from := p.gen.Reserve(class, n)
	p.Ledger.ExtendPool(class, from, int64(n))
	if p.eagerAccounts {
		for idx := from; idx < from+int64(n); idx++ {
			id := p.gen.At(identity.RankFor(class, idx))
			if err := p.Provider.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
				continue // collision or policy: account stays implicit
			}
			_ = p.Provider.SetForwarding(id.Email, forwardAddress(id.Email))
		}
	}
	if p.metrics != nil {
		p.metrics.provisioned.Add(uint64(n))
	}
}

// forwardAddress maps a honey address to its relay-domain forwarding
// address (same local part, Tripwire-controlled domain).
func forwardAddress(email string) string {
	local, _, _ := strings.Cut(email, "@")
	return local + "@" + RelayDomain
}

// honeyAddress inverts forwardAddress.
func honeyAddress(relayAddr string) string {
	local, _, _ := strings.Cut(relayAddr, "@")
	return local + "@" + ProviderDomain
}

// drainMail processes mail that arrived since the last drain: statuses are
// upgraded and verification links are clicked (paper §4.3.3). Only the
// messages past the cursor are fetched, so a drain costs O(new mail) rather
// than recopying the store's whole history every wave.
func (p *Pilot) drainMail() {
	msgs := p.Mail.Since(p.mailCursor)
	p.mailCursor += len(msgs)
	for _, m := range msgs {
		honey := honeyAddress(m.To)
		reg := p.Ledger.NoteEmail(honey, m.IsVerification())
		if reg == nil {
			continue
		}
		if link, ok := m.VerificationLink(); ok {
			// Load the verification page and retain it, as the paper's
			// mail server did.
			if page, err := p.verifier.Get(link); err == nil {
				_ = page
			}
		}
	}
}

func fmtDate(t time.Time) string { return t.Format("2006-01-02") }
