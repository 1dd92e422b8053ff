package sim

import (
	"net/url"

	"tripwire/internal/browser"
	"tripwire/internal/core"
)

// Validation is the ground-truth check of one burned registration: does an
// account with our credentials actually exist and accept logins at the
// site? The paper estimated this by manually logging in to 50 sampled
// accounts per status bin (§5.2.3); the simulation can probe every account
// through the same login endpoint a human would use.
type Validation struct {
	Registration *core.Registration
	Valid        bool
}

// ValidateAll probes every burned registration over HTTP and returns the
// outcomes. Probes use a fresh browser session and the site's public login
// form; sites that require email verification before login reject accounts
// whose verification link was never clicked, exactly as live sites did.
func (p *Pilot) ValidateAll() []Validation {
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: p.Universe}))
	regs := p.Ledger.Registrations()
	out := make([]Validation, 0, len(regs))
	for _, reg := range regs {
		out = append(out, Validation{Registration: reg, Valid: p.probeLogin(b, reg)})
		b.Release()
	}
	return out
}

func (p *Pilot) probeLogin(b *browser.Client, reg *core.Registration) bool {
	vals := url.Values{}
	vals.Set("login", reg.Identity.Email)
	vals.Set("password", reg.Identity.Password)
	page, err := b.Post("http://"+reg.Domain+"/login", vals)
	if err == nil && page.OK() {
		return true
	}
	// Some sites key accounts by username rather than email.
	vals.Set("login", reg.Identity.Username)
	page, err = b.Post("http://"+reg.Domain+"/login", vals)
	return err == nil && page.OK()
}
