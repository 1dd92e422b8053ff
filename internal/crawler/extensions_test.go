package crawler

import (
	"net/url"
	"strings"
	"testing"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/identity"
	"tripwire/internal/webgen"
)

// findWebgenSite scans a generated universe for a site matching pred.
func findWebgenSite(t *testing.T, u *webgen.Universe, pred func(*webgen.Site) bool) *webgen.Site {
	t.Helper()
	for _, s := range u.Sites() {
		if pred(s) {
			return s
		}
	}
	t.Skip("no matching site in universe")
	return nil
}

func webgenUniverse() *webgen.Universe {
	cfg := webgen.DefaultConfig()
	cfg.NumSites = 1500
	return webgen.Generate(cfg)
}

func TestLanguagePacksUnlockNonEnglishSites(t *testing.T) {
	u := webgenUniverse()
	site := findWebgenSite(t, u, func(s *webgen.Site) bool {
		return !s.LoadFailure && s.Language == webgen.LangRussian && s.HasRegistration &&
			!s.ExternalAuthOnly && !s.RequiresPayment && s.MaxEmailLen == 0 &&
			!s.MultiStage && !s.JSForm && !s.ObscureRegLink && !s.OddFieldNames &&
			s.Captcha == captcha.None && !s.FlakyBackend && !s.Passwords.RequireSpecial
	})
	gen := identity.NewGenerator("bigmail.test", 15)

	// English-only prototype: the localized link text and path give the
	// heuristics nothing.
	base := DefaultConfig()
	base.RateLimit = 0
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
	res := New(base, nil).Register(b, "http://"+site.Domain+"/", gen.New(identity.Hard))
	if res.Code != CodeNoRegistration {
		t.Fatalf("english-only crawler on Russian site: %v (%s)", res.Code, res.Detail)
	}

	// With packs, the same site registers.
	withPacks := base
	withPacks.Packs = BuiltinPacks()
	b2 := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
	res2 := New(withPacks, nil).Register(b2, "http://"+site.Domain+"/", gen.New(identity.Hard))
	if res2.Code != CodeOKSubmission {
		t.Fatalf("pack-enabled crawler on Russian site: %v (%s)", res2.Code, res2.Detail)
	}
	if u.Store(site.Domain).Len() == 0 {
		t.Fatal("no account created despite OK submission")
	}
}

func TestSearchAssistFindsObscurePages(t *testing.T) {
	u := webgenUniverse()
	site := findWebgenSite(t, u, func(s *webgen.Site) bool {
		return s.Eligible() && s.ObscureRegLink && !s.MultiStage && !s.JSForm &&
			!s.OddFieldNames && s.Captcha == captcha.None && s.MaxEmailLen == 0 &&
			!s.Passwords.RequireSpecial
	})
	gen := identity.NewGenerator("bigmail.test", 16)
	base := DefaultConfig()
	base.RateLimit = 0

	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
	res := New(base, nil).Register(b, "http://"+site.Domain+"/", gen.New(identity.Hard))
	if res.Code != CodeNoRegistration {
		t.Fatalf("prototype on obscure-link site: %v", res.Code)
	}

	withSearch := base
	withSearch.SearchFn = u.SearchRegistrationPages
	b2 := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
	res2 := New(withSearch, nil).Register(b2, "http://"+site.Domain+"/", gen.New(identity.Hard))
	if res2.Code != CodeOKSubmission {
		t.Fatalf("search-assisted crawler: %v (%s)", res2.Code, res2.Detail)
	}
}

func TestMultiStageSupportCompletesStepTwo(t *testing.T) {
	u := webgenUniverse()
	site := findWebgenSite(t, u, func(s *webgen.Site) bool {
		return s.Eligible() && s.MultiStage && !s.JSForm && !s.ObscureRegLink &&
			!s.OddFieldNames && s.Captcha == captcha.None && s.MaxEmailLen == 0 &&
			!s.FlakyBackend && !s.Passwords.RequireSpecial
	})
	gen := identity.NewGenerator("bigmail.test", 17)
	base := DefaultConfig()
	base.RateLimit = 0

	// Prototype: stops after page one; no account.
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
	res := New(base, nil).Register(b, "http://"+site.Domain+"/", gen.New(identity.Hard))
	if res.Code != CodeSubmissionFailed {
		t.Fatalf("prototype on multi-stage site: %v (%s)", res.Code, res.Detail)
	}
	if u.Store(site.Domain).Len() != 0 {
		t.Fatal("prototype created an account through a multi-stage flow")
	}

	// Extension: completes step two and the account exists.
	ext := base
	ext.MultiStageSupport = true
	b2 := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
	id := gen.New(identity.Hard)
	res2 := New(ext, nil).Register(b2, "http://"+site.Domain+"/", id)
	if res2.Code != CodeOKSubmission {
		t.Fatalf("multi-stage crawler: %v (%s)", res2.Code, res2.Detail)
	}
	st := u.Store(site.Domain)
	// Sites may key the account on the submitted username or derive it from
	// the email local-part (which can exceed the 14-char username cap), so
	// accept either — the same fallback production lookups use.
	if !st.CheckPassword(id.Username, id.Password) && !st.CheckPassword(strings.ToLower(id.LocalPart), id.Password) {
		t.Fatal("step-two completion did not store the credential")
	}
}

func TestPacksDoNotBreakEnglishSites(t *testing.T) {
	u := webgenUniverse()
	site := findWebgenSite(t, u, func(s *webgen.Site) bool {
		return s.Eligible() && !s.MultiStage && !s.JSForm && !s.ObscureRegLink &&
			!s.OddFieldNames && s.Captcha == captcha.None && s.MaxEmailLen == 0 &&
			!s.FlakyBackend && !s.Passwords.RequireSpecial
	})
	cfg := DefaultConfig()
	cfg.RateLimit = 0
	cfg.Packs = BuiltinPacks()
	cfg.SearchFn = u.SearchRegistrationPages
	cfg.MultiStageSupport = true
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
	res := New(cfg, nil).Register(b, "http://"+site.Domain+"/", identity.NewGenerator("bigmail.test", 18).New(identity.Hard))
	if res.Code != CodeOKSubmission {
		t.Fatalf("fully extended crawler regressed on a clean English site: %v (%s)", res.Code, res.Detail)
	}
}

// The link memo belongs to one crawler: an English-only crawler and one
// with language packs score the same Chinese registration link
// differently, whichever scores it first and however often.
func TestLinkMemoPerCrawlerPacks(t *testing.T) {
	u, err := url.Parse("http://zh.test/zhuce")
	if err != nil {
		t.Fatal(err)
	}
	link := browser.Link{URL: u, Text: "注册"}
	english := DefaultConfig()
	withPacks := DefaultConfig()
	withPacks.Packs = BuiltinPacks()
	for _, packsFirst := range []bool{false, true} {
		crawlers := []*Crawler{New(english, nil), New(withPacks, nil)}
		if packsFirst {
			crawlers[0], crawlers[1] = crawlers[1], crawlers[0]
		}
		for pass := 0; pass < 2; pass++ {
			for _, c := range crawlers {
				got := c.scoreLink(link)
				if want := c.scoreLinkUncached(link.Text, u.Path); got != want {
					t.Fatalf("packs=%d pass %d: memoized score %v, scoring gives %v", len(c.cfg.Packs), pass, got, want)
				}
				if found := got >= c.cfg.MinLinkScore; found != (len(c.cfg.Packs) > 0) {
					t.Fatalf("packs=%d pass %d: score %v", len(c.cfg.Packs), pass, got)
				}
			}
		}
	}
}
