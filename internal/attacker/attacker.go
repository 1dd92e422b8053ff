package attacker

import (
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"time"

	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
	"tripwire/internal/simclock"
	"tripwire/internal/webgen"
	"tripwire/internal/xrand"
)

// RNG stream tags for per-event derivation (see xrand.Mix): every random
// decision the campaign makes is a pure function of (Seed, event seq,
// stream), so concurrently executed events cannot perturb each other.
const (
	streamCrack  = 11
	streamResale = 12
)

// Profile is an attacker's per-account access pattern. Table 3 of the paper
// shows the full spread: single checks, slow recurring observation, and
// heavy scraping with bursts.
type Profile int

const (
	// ProfileOneShot verifies the credential once and never returns.
	ProfileOneShot Profile = iota
	// ProfileFewChecks logs in a handful of times over weeks.
	ProfileFewChecks
	// ProfileScraper siphons mail on a recurring cadence for months.
	ProfileScraper
	// ProfileBurstyMulti scrapes recurringly and sometimes fans a burst of
	// logins across many distinct proxies within minutes (§6.4.2: 46
	// distinct IPs over 10 minutes in the peak case).
	ProfileBurstyMulti
	// ProfileBurstySingle hammers the account dozens of times from one IP
	// within seconds, then revisits.
	ProfileBurstySingle
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case ProfileOneShot:
		return "one-shot"
	case ProfileFewChecks:
		return "few-checks"
	case ProfileScraper:
		return "scraper"
	case ProfileBurstyMulti:
		return "bursty-multi-ip"
	case ProfileBurstySingle:
		return "bursty-single-ip"
	default:
		return "Profile(?)"
	}
}

// CampaignConfig tunes the attacker.
type CampaignConfig struct {
	Seed int64
	// CrackDelay maps password-storage policy to how long after exfil the
	// dictionary run produces usable credentials. Plaintext and reversible
	// dumps are usable immediately; salted slow hashes take longest.
	CrackDelayWeak   time.Duration
	CrackDelayStrong time.Duration
	// FirstUseDelay bounds the jitter between credentials becoming usable
	// and the first stuffing attempt.
	FirstUseDelayMin, FirstUseDelayMax time.Duration
	// Align coarsens attacker scheduling to this grain: every campaign
	// event time is rounded *up* to a multiple of Align, so independent
	// accounts' visits collide on shared timestamps and the epoch-parallel
	// timeline engine gets frontiers worth parallelizing instead of
	// singleton epochs. Zero disables alignment (every event keeps its
	// exact jittered time). Rounding is ceiling-only so an aligned event
	// never fires before the delay the model drew.
	Align time.Duration
	// End stops all scheduling; recurrences are not booked past it.
	End time.Time
	// SpamProb is the per-account probability the attacker eventually
	// sends spam through it (leading to provider deactivation).
	SpamProb float64
	// TakeoverProb is the per-account probability the attacker changes the
	// password and strips forwarding (account g2 in the paper).
	TakeoverProb float64
	// CheckFraction is the share of recovered provider credentials the
	// attacker actually tests. 1 (or 0, the zero value) tests everything;
	// lower values model the paper's §7.3 evasion strategy: "the odds of
	// detection are inversely proportional to the percentage of email
	// accounts tested."
	CheckFraction float64

	// ResaleProb is the probability a cracked credential list is later
	// sold on an underground market, triggering a second stuffing wave by
	// the buyer (paper: bitcointalk's 2015 dump was "reportedly sold
	// online in 2016"; §6.4.4 suggests attackers stockpile accounts "for
	// later use or sale").
	ResaleProb float64
	// ResaleDelayMin/Max bound how long after cracking the sale happens.
	ResaleDelayMin, ResaleDelayMax time.Duration
}

// DefaultCampaignConfig returns paper-shaped timings: the observed gap
// between registration and first access ("Until" in Table 3) ranged from
// days to over a year.
func DefaultCampaignConfig(end time.Time) CampaignConfig {
	return CampaignConfig{
		Seed:             7,
		CrackDelayWeak:   7 * 24 * time.Hour,
		CrackDelayStrong: 45 * 24 * time.Hour,
		FirstUseDelayMin: 24 * time.Hour,
		FirstUseDelayMax: 45 * 24 * time.Hour,
		Align:            time.Hour,
		End:              end,
		SpamProb:         0.45,
		TakeoverProb:     0.08,
		ResaleProb:       0.15,
		ResaleDelayMin:   120 * 24 * time.Hour,
		ResaleDelayMax:   330 * 24 * time.Hour,
	}
}

// Campaign drives breaches end to end: exfiltrate a site's account
// database, crack it, and stuff recovered provider credentials via the
// botnet, on the virtual-time schedule.
//
// Every campaign event is keyed for the epoch-parallel timeline engine:
// breach/crack/resale events carry the domain's conflict key, per-account
// stuffing visits carry the account's. Randomness never flows through a
// shared sequential RNG — crack and resale events derive theirs from
// (Seed, event seq), and each account carries a private RNG seeded at
// scheduling time — so executing independent keys concurrently reproduces
// the serial schedule bit for bit.
type Campaign struct {
	cfg      CampaignConfig
	sched    *simclock.Scheduler
	stuffer  *Stuffer
	cracker  *Cracker
	provider *emailprovider.Provider

	mu sync.Mutex
	// breaches records exfil times per domain (ground truth for EXPERIMENTS).
	breaches map[string]time.Time
	dead     map[string]bool // accounts the attacker has abandoned
	resales  []string        // domains whose dumps were resold
	// deadFlags holds one abandoned flag per stuffed address, which every
	// accountState of the address shares (a resale adds a second state for
	// an address the first wave already stuffs). Only the address's keyed
	// events, which never run concurrently, read or write a flag.
	deadFlags map[string]*bool

	// Metrics, when non-nil, receives campaign-progress observations.
	// Recording is atomic-only and draws no randomness.
	Metrics *Metrics
}

// NewCampaign assembles an attacker.
func NewCampaign(cfg CampaignConfig, sched *simclock.Scheduler, stuffer *Stuffer, provider *emailprovider.Provider) *Campaign {
	return &Campaign{
		cfg:       cfg,
		sched:     sched,
		stuffer:   stuffer,
		cracker:   &Cracker{Words: identity.DictionaryWords()},
		provider:  provider,
		breaches:  make(map[string]time.Time),
		dead:      make(map[string]bool),
		deadFlags: make(map[string]*bool),
	}
}

// TuneEpoch does nothing: the attacker schedules on the fixed grain
// CampaignConfig.Align. It stays only because bench/stuffing.go wires it
// into simclock.Epochs.Tune.
func (c *Campaign) TuneEpoch(simclock.EpochStats) {}

// Breaches returns ground-truth exfil times by domain.
func (c *Campaign) Breaches() map[string]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Time, len(c.breaches))
	for d, t := range c.breaches {
		out[d] = t
	}
	return out
}

// align rounds t up to the grain cfg.Align (no-op when Align is unset, and
// for times already on the grain).
func (c *Campaign) align(t time.Time) time.Time {
	a := c.cfg.Align
	if a <= 0 {
		return t
	}
	if tr := t.Truncate(a); !tr.Equal(t) {
		return tr.Add(a)
	}
	return t
}

// Breach schedules the compromise of domain at time when: the attacker
// exfiltrates the store's dump, keeps the rows at the email provider, cracks
// them per the site's storage policy, and begins stuffing what it recovers.
func (c *Campaign) Breach(domain string, store *webgen.Store, when time.Time) {
	key := simclock.KeyFor(domain)
	c.sched.AtKeyed(c.align(when), key, func(x *simclock.Exec) {
		c.mu.Lock()
		c.breaches[domain] = x.Now()
		c.mu.Unlock()
		if c.Metrics != nil {
			c.Metrics.breaches.Inc()
		}
		dump := FilterByDomain(store.Dump(), c.provider.Domain())
		delay := c.crackDelay(store.Policy())
		at := c.align(x.Now().Add(delay))
		x.AtKeyed(at, key, func(x *simclock.Exec) {
			rng := xrand.New(xrand.Mix(c.cfg.Seed, int64(x.Seq()), streamCrack))
			provider := c.cracker.Crack(dump)
			if c.Metrics != nil {
				c.Metrics.credsCracked.Add(uint64(len(provider)))
			}
			for _, cred := range provider {
				if c.cfg.CheckFraction > 0 && c.cfg.CheckFraction < 1 && rng.Float64() >= c.cfg.CheckFraction {
					continue // evasive attacker: sample, don't sweep
				}
				c.scheduleStuffing(x, rng, cred)
			}
			c.maybeResell(x, rng, domain, provider)
		})
	})
}

// maybeResell lists the cracked credential set on an underground market;
// months later a buyer runs a second stuffing wave with fresh behaviour
// profiles against whatever accounts are still alive.
func (c *Campaign) maybeResell(x *simclock.Exec, rng *rand.Rand, domain string, creds []Credential) {
	if len(creds) == 0 || c.cfg.ResaleProb <= 0 || rng.Float64() >= c.cfg.ResaleProb {
		return
	}
	spread := c.cfg.ResaleDelayMax - c.cfg.ResaleDelayMin
	delay := c.cfg.ResaleDelayMin
	if spread > 0 {
		delay += time.Duration(rng.Int63n(int64(spread)))
	}
	at := c.align(x.Now().Add(delay))
	key := simclock.KeyFor(domain)
	x.AtKeyed(at, key, func(x *simclock.Exec) {
		now := x.Now()
		if now.After(c.cfg.End) {
			return
		}
		c.mu.Lock()
		c.resales = append(c.resales, domain)
		c.mu.Unlock()
		if c.Metrics != nil {
			c.Metrics.resales.Inc()
		}
		rng := xrand.New(xrand.Mix(c.cfg.Seed, int64(x.Seq()), streamResale))
		for _, cred := range creds {
			c.scheduleStuffing(x, rng, cred)
		}
	})
}

// Resales lists domains whose dumps were resold (ground truth for tests),
// sorted so the listing is independent of same-epoch resale interleaving.
func (c *Campaign) Resales() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.resales))
	copy(out, c.resales)
	sort.Strings(out)
	return out
}

func (c *Campaign) crackDelay(p webgen.StoragePolicy) time.Duration {
	switch p {
	case webgen.StorePlaintext, webgen.StoreReversible:
		return time.Hour // read straight out of the dump
	case webgen.StoreWeakHash:
		return c.cfg.CrackDelayWeak
	case webgen.StoreStrongHash:
		return c.cfg.CrackDelayStrong
	default:
		return c.cfg.CrackDelayWeak
	}
}

// scheduleStuffing samples a behaviour profile for the credential and books
// its first access. rng is the scheduling event's private RNG; the account
// itself gets an independent child RNG so its later visits draw the same
// numbers no matter what other accounts do in between.
func (c *Campaign) scheduleStuffing(x *simclock.Exec, rng *rand.Rand, cred Credential) {
	profile := sampleProfile(rng)
	spam := rng.Float64() < c.cfg.SpamProb
	takeover := rng.Float64() < c.cfg.TakeoverProb
	spamAfter := 3 + rng.Intn(40)
	first := c.cfg.FirstUseDelayMin
	if spread := c.cfg.FirstUseDelayMax - c.cfg.FirstUseDelayMin; spread > 0 {
		first += time.Duration(rng.Int63n(int64(spread)))
	}

	c.mu.Lock()
	dead := c.deadFlags[cred.Email]
	if dead == nil {
		dead = new(bool)
		c.deadFlags[cred.Email] = dead
	}
	c.mu.Unlock()
	state := &accountState{
		cred:         cred,
		key:          simclock.KeyFor(cred.Email),
		dead:         dead,
		profile:      profile,
		willSpam:     spam,
		willTakeover: takeover,
		spamAfter:    spamAfter,
		rng:          xrand.New(rng.Int63()),
	}
	at := c.align(x.Now().Add(first))
	x.AtKeyed(at, state.key, func(x *simclock.Exec) {
		c.access(state, x)
	})
}

func sampleProfile(rng *rand.Rand) Profile {
	r := rng.Float64()
	switch {
	case r < 0.15:
		return ProfileOneShot
	case r < 0.42:
		return ProfileFewChecks
	case r < 0.74:
		return ProfileScraper
	case r < 0.92:
		return ProfileBurstyMulti
	default:
		return ProfileBurstySingle
	}
}

// accountState is touched only by the account's own keyed events, which
// the timeline engine serializes, so no lock guards it — including rng,
// the account's private randomness stream, and dead, the address's
// abandoned flag.
type accountState struct {
	cred         Credential
	key          uint64
	dead         *bool
	rng          *rand.Rand
	profile      Profile
	logins       int
	failures     int
	willSpam     bool
	willTakeover bool
	spamAfter    int
	tookOver     bool
}

// access performs one visit per the profile, then books the next.
func (c *Campaign) access(st *accountState, x *simclock.Exec) {
	if *st.dead {
		return
	}
	siphon := st.profile == ProfileScraper || st.profile == ProfileBurstyMulti
	switch st.profile {
	case ProfileBurstyMulti:
		// Occasionally fan out across many proxies within ~10 minutes.
		// Tight retry loops on independent, flaky workers: "the systems
		// used to login to accounts are very loosely coupled and failure
		// is common" (§6.4.2).
		if st.rng.Float64() < 0.16 {
			n := 5 + st.rng.Intn(42)
			for i := 0; i < n; i++ {
				ok, _ := c.stuffOnce(st, siphon)
				if ok {
					st.logins++
				} else {
					st.failures++
				}
			}
			c.afterLogins(st)
			c.scheduleNext(st, x)
			return
		}
	case ProfileBurstySingle:
		// Each burst hammers the account from one worker IP "dozens or
		// hundreds of times within a few seconds" (§6.4.2); the worker —
		// and hence the IP — changes between bursts, bounding per-IP reuse
		// near the paper's observed maximum of 58.
		burstIP := c.stuffer.LeaseIP(st.cred.Email)
		n := 10 + st.rng.Intn(35)
		for i := 0; i < n; i++ {
			if c.stuffer.TryLoginFrom(burstIP, st.cred, false) {
				st.logins++
			} else {
				st.failures++
			}
		}
		c.afterLogins(st)
		c.scheduleNext(st, x)
		return
	}
	ok, _ := c.stuffOnce(st, siphon)
	if ok {
		st.logins++
	} else {
		st.failures++
	}
	c.afterLogins(st)
	c.scheduleNext(st, x)
}

func (c *Campaign) stuffOnce(st *accountState, siphon bool) (bool, netip.Addr) {
	cred := st.cred
	if st.tookOver {
		cred.Password = takeoverPassword(cred.Email)
	}
	return c.stuffer.TryLogin(cred, siphon)
}

// afterLogins applies post-access abuse: takeover, spam (which gets the
// account deactivated by the provider).
func (c *Campaign) afterLogins(st *accountState) {
	if st.logins == 0 {
		return
	}
	if st.willTakeover && !st.tookOver && st.logins >= 3 {
		c.provider.ChangePassword(st.cred.Email, takeoverPassword(st.cred.Email))
		c.provider.RemoveForwarding(st.cred.Email)
		st.tookOver = true
		if c.Metrics != nil {
			c.Metrics.takeovers.Inc()
		}
	}
	if st.willSpam && st.logins >= st.spamAfter {
		c.provider.ReportSpam(st.cred.Email, 100+st.rng.Intn(900))
		*st.dead = true
		c.mu.Lock()
		c.dead[st.cred.Email] = true
		c.mu.Unlock()
		if c.Metrics != nil {
			c.Metrics.spamTakedowns.Inc()
		}
	}
}

// scheduleNext books the account's next visit per profile, abandoning
// accounts whose value is exhausted or whose logins keep failing.
func (c *Campaign) scheduleNext(st *accountState, x *simclock.Exec) {
	if st.failures >= 30 && st.logins == 0 {
		if c.Metrics != nil {
			c.Metrics.credsAbandoned.Inc()
		}
		return // credential never worked; drop it
	}
	var gap time.Duration
	switch st.profile {
	case ProfileOneShot:
		return
	case ProfileFewChecks:
		if st.logins+st.failures >= 2+st.rng.Intn(8) {
			return
		}
		gap = time.Duration(3+st.rng.Intn(40)) * 24 * time.Hour
	case ProfileScraper:
		gap = time.Duration(2+st.rng.Intn(9)) * 24 * time.Hour
	case ProfileBurstyMulti:
		gap = time.Duration(2+st.rng.Intn(11)) * 24 * time.Hour
	case ProfileBurstySingle:
		gap = time.Duration(20+st.rng.Intn(41)) * 24 * time.Hour
	}
	next := c.align(x.Now().Add(gap))
	if next.After(c.cfg.End) {
		return
	}
	x.AtKeyed(next, st.key, func(x *simclock.Exec) {
		c.access(st, x)
	})
}

// takeoverPassword is the deterministic password an attacker sets after
// hijacking an account.
func takeoverPassword(email string) string { return "hijacked-" + email }
