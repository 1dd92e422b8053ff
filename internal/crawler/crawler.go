// Package crawler implements Tripwire's automated account-registration
// crawler (paper §4.3): given a site URL and a fictitious identity, it
// locates the registration page, identifies and fills each form field with
// hand-crafted weighted-regex heuristics, bypasses rudimentary bot checks
// via a third-party solving service, submits, and returns a termination
// code matching Figure 1 of the paper.
//
// The crawler is best-effort by design: it "explicitly does not attempt to
// support all of the site registration mechanisms encountered on the Web."
// Multi-page forms, interactive CAPTCHAs, and image-only registration links
// fail exactly as the prototype's did (paper §6.2.2).
package crawler

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/htmldom"
	"tripwire/internal/identity"
)

// Code is a crawler termination code, per Figure 1 of the paper.
type Code int

const (
	// CodeOKSubmission: the form was submitted and the response passed the
	// success heuristics.
	CodeOKSubmission Code = iota
	// CodeSubmissionFailed: the form was submitted but the response failed
	// the success heuristics ("Submission heuristics failed").
	CodeSubmissionFailed
	// CodeFieldsMissing: the candidate form did not meet the conditions
	// for a valid registration form, or required fields could not be
	// recognized/filled ("Required fields missing").
	CodeFieldsMissing
	// CodeNoRegistration: no registration page was found from the landing
	// page within the link budget.
	CodeNoRegistration
	// CodeSystemError: the crawler was otherwise unable to process the
	// site (load failure, internal fault).
	CodeSystemError
)

// String names the code with the paper's Figure-1 labels.
func (c Code) String() string {
	switch c {
	case CodeOKSubmission:
		return "OK submission"
	case CodeSubmissionFailed:
		return "Submission heuristics failed"
	case CodeFieldsMissing:
		return "Required fields missing"
	case CodeNoRegistration:
		return "No registration found"
	case CodeSystemError:
		return "System Error"
	default:
		return fmt.Sprintf("Code(%d)", int(c))
	}
}

// Result is the outcome of one registration attempt. Its text is strings,
// never a node or URL of the attempt's pages, so it outlives the parse
// storage the attempt gives back.
type Result struct {
	Code   Code
	Site   string // host of the attempted site
	RegURL string // registration page URL, if one was found
	// Exposed reports whether the identity's email address or password was
	// ever shown to the site — regardless of the crawler's assessment of
	// success. Exposure permanently burns the identity (paper §4.3.1).
	Exposed   bool
	PageLoads int
	Detail    string
}

// Config tunes a Crawler.
type Config struct {
	// MaxLinkTries bounds how many candidate registration links are
	// followed from the landing page.
	MaxLinkTries int
	// MinLinkScore is the weighted-regex score a link must reach to be
	// considered a registration link.
	MinLinkScore float64
	// RateLimit is the minimum delay between page loads (paper §3: no
	// faster than one load per three seconds).
	RateLimit time.Duration
	// FaultRate injects random crawler faults (the prototype's own bugs,
	// JS-dependent pages, timeouts), reproducing the paper's System Error
	// share. Zero disables injection.
	FaultRate float64
	// Seed drives fault injection.
	Seed int64
	// Packs extends the English-only heuristics with per-language rules
	// (the paper's §7.2 multi-language improvement). Empty reproduces the
	// prototype's English-only behaviour.
	Packs []Pack
	// SearchFn, when non-nil, supplies extra candidate registration URLs
	// for a host after on-page link discovery fails — the paper's §6.2.2
	// suggestion to "rely on search engines to help locate the
	// registration pages".
	SearchFn func(host string) []string
	// MultiStageSupport continues through multi-page registration forms
	// ("around 10% of sites with registration forms", §7.2) instead of
	// stopping after page one. Off by default: the prototype "makes no
	// attempt at handling these multi-step forms."
	MultiStageSupport bool
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		MaxLinkTries: 3,
		MinLinkScore: 1.5,
		RateLimit:    3 * time.Second,
		FaultRate:    0.0,
	}
}

// Crawler performs registration attempts. Each attempt uses a caller-
// provided browser session so that "individual instances of the crawler
// have only the identity assigned to one site" (paper §4.4), and lends that
// session parse storage from the crawler's own pool for exactly the length
// of the attempt: no page an attempt loads is needed after it. A Crawler is
// safe for concurrent use: attempts that supply an Env share no mutable
// state but the pool and the memos, and attempts without one serialize
// their draws from the crawler's default fault RNG.
type Crawler struct {
	cfg    Config
	solver *captcha.Service

	mu  sync.Mutex // guards rng
	rng *rand.Rand
	// Sleep is called for rate-limiting between page loads when an attempt
	// does not carry its own Env.Sleep; nil means no delay accounting.
	Sleep func(time.Duration)
	// Metrics, when non-nil, receives one observation per finished attempt.
	// Recording is atomic-only and never alters attempt outcomes.
	Metrics *Metrics

	links linkMemo
	// arenas is the parse storage lent to attempts; it holds at most one
	// arena per attempt that ran at once, and dies with the crawler.
	arenas browser.Pool
}

// linkMemo memoizes scoreLink by (anchor text, URL path). A link's score is
// a pure function of those two strings and the crawler's Packs, which never
// change, so a hit returns exactly what scoring would; sites share their
// navigation links, so a crawl scores each distinct link once. The memo
// belongs to one crawler because crawlers with different Packs score the
// same link differently. The two-level map keeps hits allocation-free.
type linkMemo struct {
	sync.RWMutex
	m map[string]map[string]float64
	n int
}

// linkMemoMax bounds the memo; on overflow it starts over, like the
// classify memo.
const linkMemoMax = 1 << 13

// Env carries the per-attempt dependencies that would otherwise be shared
// crawler state. The parallel crawl engine derives every member from
// (seed, site rank), which makes each attempt's outcome a pure function of
// the site — bit-identical regardless of worker count or completion order.
type Env struct {
	// Rng drives fault injection for this attempt. Nil falls back to the
	// crawler's own seeded RNG (serialized under a mutex).
	Rng *rand.Rand
	// Solver overrides the crawler's CAPTCHA solving service, typically
	// with a Service.Derive stream.
	Solver *captcha.Service
	// Sleep receives rate-limit delays, letting each worker keep its own
	// virtual-time account. Nil falls back to the crawler's Sleep hook.
	Sleep func(time.Duration)
}

// New returns a Crawler using solver for bot checks.
func New(cfg Config, solver *captcha.Service) *Crawler {
	return &Crawler{cfg: cfg, solver: solver, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (c *Crawler) sleep(env *Env) {
	if c.cfg.RateLimit <= 0 {
		return
	}
	if env != nil && env.Sleep != nil {
		env.Sleep(c.cfg.RateLimit)
		return
	}
	if c.Sleep != nil {
		c.Sleep(c.cfg.RateLimit)
	}
}

// solverFor returns the solving service an attempt should use.
func (c *Crawler) solverFor(env *Env) *captcha.Service {
	if env != nil && env.Solver != nil {
		return env.Solver
	}
	return c.solver
}

// faultDraw draws the fault-injection variate for one attempt.
func (c *Crawler) faultDraw(env *Env) float64 {
	if env != nil && env.Rng != nil {
		return env.Rng.Float64()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// Register attempts to create an account at siteURL for id, driving b. It
// uses the crawler's shared RNG, solver, and Sleep hook; concurrent callers
// should prefer RegisterWith.
func (c *Crawler) Register(b *browser.Client, siteURL string, id *identity.Identity) Result {
	return c.RegisterWith(nil, b, siteURL, id)
}

// RegisterWith runs one registration attempt with per-attempt dependencies
// taken from env (any nil member falls back to the crawler's shared one).
// The pages b loads during the attempt are parsed into storage the crawler
// lends it and takes back when the attempt returns, so their nodes are
// invalid afterwards; pages b loaded before stay valid.
func (c *Crawler) RegisterWith(env *Env, b *browser.Client, siteURL string, id *identity.Identity) Result {
	giveBack := b.Borrow(&c.arenas)
	res := c.registerWith(env, b, siteURL, id)
	giveBack()
	c.Metrics.observe(&res)
	return res
}

func (c *Crawler) registerWith(env *Env, b *browser.Client, siteURL string, id *identity.Identity) Result {
	res := Result{Site: hostOf(siteURL)}

	if c.cfg.FaultRate > 0 && c.faultDraw(env) < c.cfg.FaultRate {
		res.Code = CodeSystemError
		res.Detail = "injected crawler fault"
		return res
	}

	c.sleep(env)
	page, err := b.Get(siteURL)
	res.PageLoads++
	if err != nil || page.StatusCode >= 500 {
		res.Code = CodeSystemError
		res.Detail = "landing page failed to load"
		return res
	}

	// Figure 1: "Is registration page?" — if the landing page itself has a
	// registration form, use it; otherwise follow the most likely
	// registration link, up to the budget.
	regPage, form := c.findRegistrationForm(env, b, page, &res)
	if (regPage == nil || form == nil) && c.cfg.SearchFn != nil {
		regPage, form = c.searchForForm(env, b, &res)
	}
	if regPage == nil || form == nil {
		if res.Code == 0 && res.Detail == "" {
			res.Code = CodeNoRegistration
			res.Detail = "no registration page located"
		}
		return res
	}
	res.RegURL = regPage.URL.String()

	// Identify and fill each field serially.
	sub, fillErr := c.fillForm(env, b, regPage, form, id)
	if fillErr != "" {
		res.Code = CodeFieldsMissing
		res.Detail = fillErr
		return res
	}

	// Submission: from here the identity is exposed to the site (the
	// horizontal line in Figure 1).
	res.Exposed = true
	c.sleep(env)
	resp, err := b.Submit(sub)
	res.PageLoads++
	if err != nil || resp.StatusCode >= 500 {
		res.Code = CodeSystemError
		res.Detail = "submission request failed"
		return res
	}
	if c.looksLikeSuccess(resp.DOM.Text()) {
		res.Code = CodeOKSubmission
		return res
	}
	if c.cfg.MultiStageSupport {
		if done := c.continueMultiStage(env, b, resp, id, &res); done {
			return res
		}
	}
	res.Code = CodeSubmissionFailed
	res.Detail = "response did not look like a successful registration"
	return res
}

// continueMultiStage recognizes a step-two form in the submission response
// (a POST form with fillable fields but no credential fields — credentials
// were page one) and completes it. It reports whether it produced a final
// result in res.
func (c *Crawler) continueMultiStage(env *Env, b *browser.Client, resp *browser.Page, id *identity.Identity, res *Result) bool {
	for _, form := range resp.Forms() {
		if form.Method != "POST" {
			continue
		}
		var hasPassword bool
		fillable := 0
		for i := range form.Fields {
			switch ClassifyField(&form.Fields[i]) {
			case MeaningPassword, MeaningConfirmPassword:
				hasPassword = true
			case MeaningHidden:
			default:
				if form.Fields[i].Name != "" && form.Fields[i].Type != "submit" {
					fillable++
				}
			}
		}
		if hasPassword || fillable == 0 {
			continue // not a continuation page
		}
		sub := form.Fill()
		for i := range form.Fields {
			fld := &form.Fields[i]
			if fld.Name == "" || fld.Type == "submit" || fld.Type == "hidden" {
				continue
			}
			switch ClassifyField(fld) {
			case MeaningFirstName:
				sub.Set(fld.Name, id.FirstName)
			case MeaningLastName:
				sub.Set(fld.Name, id.LastName)
			case MeaningFullName:
				sub.Set(fld.Name, id.FullName())
			case MeaningZip:
				sub.Set(fld.Name, id.Zip)
			case MeaningPhone:
				sub.Set(fld.Name, id.Phone)
			case MeaningDOB:
				sub.Set(fld.Name, id.Birthday.Format("01/02/2006"))
			case MeaningTOS:
				sub.Check(fld.Name)
			case MeaningState:
				sub.SelectLast(fld.Name)
			default:
				if fld.Type == "checkbox" {
					if fld.Required {
						sub.Check(fld.Name)
					}
				} else {
					sub.Set(fld.Name, id.FullName())
				}
			}
		}
		c.sleep(env)
		final, err := b.Submit(sub)
		res.PageLoads++
		if err != nil || final.StatusCode >= 500 {
			res.Code = CodeSystemError
			res.Detail = "multi-stage continuation failed to submit"
			return true
		}
		if c.looksLikeSuccess(final.DOM.Text()) {
			res.Code = CodeOKSubmission
			res.Detail = "completed a multi-stage registration"
			return true
		}
		res.Code = CodeSubmissionFailed
		res.Detail = "multi-stage continuation did not end in success"
		return true
	}
	return false
}

// findRegistrationForm locates the registration form starting from the
// landing page, following up to MaxLinkTries scored links.
func (c *Crawler) findRegistrationForm(env *Env, b *browser.Client, landing *browser.Page, res *Result) (*browser.Page, *browser.Form) {
	if f := bestForm(landing); f != nil {
		return landing, f
	}
	links := landing.Links()
	type scored struct {
		l browser.Link
		s float64
	}
	var cands []scored
	for _, l := range links {
		if s := c.scoreLink(l); s >= c.cfg.MinLinkScore {
			cands = append(cands, scored{l, s})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].s > cands[j].s })
	tries := c.cfg.MaxLinkTries
	if tries > len(cands) {
		tries = len(cands)
	}
	for i := 0; i < tries; i++ {
		c.sleep(env)
		page, err := b.GetURL(cands[i].l.URL)
		res.PageLoads++
		if err != nil || page.StatusCode >= 500 {
			continue
		}
		if f := bestForm(page); f != nil {
			return page, f
		}
	}
	return nil, nil
}

// searchForForm consults the configured search engine for registration-page
// candidates (covering image-text links and otherwise obscure pages).
func (c *Crawler) searchForForm(env *Env, b *browser.Client, res *Result) (*browser.Page, *browser.Form) {
	urls := c.cfg.SearchFn(res.Site)
	tries := c.cfg.MaxLinkTries
	if tries > len(urls) {
		tries = len(urls)
	}
	for i := 0; i < tries; i++ {
		c.sleep(env)
		page, err := b.Get(urls[i])
		res.PageLoads++
		if err != nil || page.StatusCode >= 500 {
			continue
		}
		if f := bestForm(page); f != nil {
			return page, f
		}
	}
	return nil, nil
}

// scoreLink combines the base English rules with any configured language
// packs, through the crawler's link memo.
func (c *Crawler) scoreLink(l browser.Link) float64 {
	text, path := l.Text, l.URL.Path
	c.links.RLock()
	s, ok := c.links.m[text][path]
	c.links.RUnlock()
	if ok {
		return s
	}
	s = c.scoreLinkUncached(text, path)
	c.links.Lock()
	if c.links.m == nil || c.links.n >= linkMemoMax {
		c.links.m = make(map[string]map[string]float64)
		c.links.n = 0
	}
	inner := c.links.m[text]
	if inner == nil {
		inner = make(map[string]float64)
		c.links.m[text] = inner
	}
	if _, dup := inner[path]; !dup {
		// The path may alias the page's markup; a copy keeps the memo from
		// holding the whole page.
		inner[strings.Clone(path)] = s
		c.links.n++
	}
	c.links.Unlock()
	return s
}

// scoreLinkUncached scores a link's text and path. Both are lowered once,
// here, for every rule set.
func (c *Crawler) scoreLinkUncached(text, path string) float64 {
	text, path = strings.ToLower(text), strings.ToLower(path)
	s := scoreRegistrationLinkLower(text, path)
	for _, p := range c.cfg.Packs {
		s += score(p.linkText, text) + score(p.linkHref, path)
	}
	return s
}

// looksLikeSuccess extends the base outcome heuristics with language packs.
// The page text is lowered once for the base rules and every pack.
func (c *Crawler) looksLikeSuccess(pageText string) bool {
	lower := strings.ToLower(pageText)
	if looksLikeSuccessLower(lower) {
		return true
	}
	for _, p := range c.cfg.Packs {
		succ := score(p.success, lower)
		fail := score(p.failure, lower)
		if succ >= 2.0 && succ > fail {
			return true
		}
	}
	return false
}

// bestForm returns the highest-scoring registration-form candidate on the
// page, or nil when none clears the bar. The lowered page text, a walk of
// the whole DOM, is built once, and only if some form has a password field.
func bestForm(p *browser.Page) *browser.Form {
	var text string
	built := false
	lowered := func() string {
		if !built {
			text, built = strings.ToLower(p.DOM.Text()), true
		}
		return text
	}
	var best *browser.Form
	bestScore := 0.0
	for _, f := range p.Forms() {
		if s := formScore(f, lowered); s > bestScore {
			best, bestScore = f, s
		}
	}
	if bestScore < 3.0 {
		return nil
	}
	return best
}

// fillForm classifies and fills every field. It returns a non-empty reason
// string when a required field cannot be satisfied, which maps to the
// "Required fields missing" termination code.
func (c *Crawler) fillForm(env *Env, b *browser.Client, p *browser.Page, form *browser.Form, id *identity.Identity) (*browser.Submission, string) {
	sub := form.Fill()
	var sawEmail, sawPassword bool
	for i := range form.Fields {
		fld := &form.Fields[i]
		if fld.Name == "" || fld.Type == "submit" || fld.Type == "button" {
			continue
		}
		switch m := ClassifyField(fld); m {
		case MeaningHidden:
			// Keep server-provided defaults (CSRF tokens, challenge ids).
		case MeaningEmail:
			sub.Set(fld.Name, id.Email)
			sawEmail = true
		case MeaningPassword:
			// Sites sometimes render password+confirm both as bare
			// "password" fields; fill the second occurrence with the same
			// value.
			sub.Set(fld.Name, id.Password)
			sawPassword = true
		case MeaningConfirmPassword:
			sub.Set(fld.Name, id.Password)
		case MeaningUsername:
			sub.Set(fld.Name, id.Username)
		case MeaningFirstName:
			sub.Set(fld.Name, id.FirstName)
		case MeaningLastName:
			sub.Set(fld.Name, id.LastName)
		case MeaningFullName:
			sub.Set(fld.Name, id.FullName())
		case MeaningZip:
			sub.Set(fld.Name, id.Zip)
		case MeaningPhone:
			sub.Set(fld.Name, id.Phone)
		case MeaningDOB:
			sub.Set(fld.Name, id.Birthday.Format("01/02/2006"))
		case MeaningState:
			sub.SelectLast(fld.Name)
		case MeaningTOS:
			sub.Check(fld.Name)
		case MeaningNewsletter:
			// Leave unchecked: minimize the footprint of honey accounts.
		case MeaningCaptcha:
			ans, ok := c.solveCaptcha(env, b, p, fld)
			if !ok {
				return nil, "unsolvable bot check: " + fld.Context()
			}
			sub.Set(fld.Name, ans)
		case MeaningCreditCard:
			return nil, "registration requires payment information"
		case MeaningSearch:
			// Stray search boxes inside the form container: ignore.
		default:
			if fld.Required {
				return nil, "unrecognized required field: " + firstNonEmpty(fld.Name, fld.Label)
			}
		}
	}
	if !sawEmail || !sawPassword {
		// Paper §5.2.1: a valid registration form must ask for both a
		// password and an email address.
		return nil, fmt.Sprintf("form lacks required credentials (email=%v password=%v)", sawEmail, sawPassword)
	}
	return sub, ""
}

// solveCaptcha hands the on-page challenge to the solving service: for
// image CAPTCHAs it downloads the image and submits the bytes; for
// knowledge questions it submits the question text; interactive challenges
// are unsolvable (paper §7.2: "the crawler has no ability to handle
// interactive CAPTCHA services").
func (c *Crawler) solveCaptcha(env *Env, b *browser.Client, p *browser.Page, fld *browser.Field) (string, bool) {
	solver := c.solverFor(env)
	if solver == nil {
		return "", false
	}
	if p.DOM.First(func(n *htmldom.Node) bool {
		return n.Tag == "div" && strings.Contains(n.AttrOr("class", ""), "g-recaptcha")
	}) != nil {
		return "", false
	}
	img := p.DOM.First(func(n *htmldom.Node) bool {
		return n.Tag == "img" && strings.Contains(n.AttrOr("src", ""), "captcha")
	})
	if img != nil {
		src, _ := img.Attr("src")
		u, err := p.URL.Parse(src)
		if err != nil {
			return "", false
		}
		c.sleep(env)
		imgPage, err := b.GetURL(u)
		if err != nil || !imgPage.OK() {
			return "", false
		}
		return solver.SolveImage(imgPage.Raw)
	}
	// No image: treat the field's label as a free-form question.
	return solver.SolveKnowledge(fld.Label)
}

func hostOf(rawURL string) string {
	s := rawURL
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	return s
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
