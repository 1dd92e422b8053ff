// Package disclosure reproduces the paper's §6.3 responsible-disclosure
// process: for every detected compromise, discover contact addresses (the
// site's own contact page, the domain-WHOIS registrant, and common
// security aliases), send a notification, and track whether and how the
// site responds. The paper's experience — a third of sites responding, one
// corroboration, disputes with no alternative explanation, dead MX records
// and expired WHOIS domains — is reproduced from each site's generated
// response profile.
package disclosure

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/htmldom"
	"tripwire/internal/simclock"
	"tripwire/internal/webgen"
)

// Outcome is the final state of one site's notification.
type Outcome int

const (
	// OutcomeNoResponse: messages delivered, nobody answered.
	OutcomeNoResponse Outcome = iota
	// OutcomeBounced: no deliverable address existed (no MX, expired
	// WHOIS domain, no published contact).
	OutcomeBounced
	// OutcomeResponded: a human answered; see the Reaction.
	OutcomeResponded
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeNoResponse:
		return "no response"
	case OutcomeBounced:
		return "undeliverable"
	case OutcomeResponded:
		return "responded"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Notification is the disclosure record for one site.
type Notification struct {
	Domain    string
	SentAt    time.Time
	Addresses []string // every address the first message went to
	Outcome   Outcome
	Reaction  webgen.Reaction
	// RespondedAfter is the first-response latency (zero unless responded).
	RespondedAfter time.Duration
	// FollowUps counts messages exchanged after the first response.
	FollowUps int
}

// commonAliases are the guessed addresses the paper CC'd ("emailing common
// email addresses that might be relevant, e.g. security@, webmaster@").
var commonAliases = []string{"security", "webmaster", "abuse", "support"}

// MailChecker answers whether a domain can receive mail at all; the DNS
// resolver implements it (MX lookup). When nil, the campaign falls back to
// the site's ground-truth NoMX flag.
type MailChecker interface {
	CanReceiveMail(domain string) bool
}

// Campaign runs disclosures against a synthetic web on the virtual clock.
type Campaign struct {
	Universe *webgen.Universe
	Sched    *simclock.Scheduler
	// Browser fetches contact pages; a fresh in-process session is fine.
	// DiscoverAddresses releases its pages after each scrape.
	Browser *browser.Client
	// DNS, when set, performs the MX deliverability check.
	DNS MailChecker

	notifications []*Notification
}

// NewCampaign returns a disclosure campaign over universe.
func NewCampaign(universe *webgen.Universe, sched *simclock.Scheduler) *Campaign {
	return &Campaign{
		Universe: universe,
		Sched:    sched,
		Browser:  browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: universe})),
	}
}

// DiscoverAddresses assembles the recipient set for a domain the way the
// paper did: scrape the live contact page, read domain WHOIS, and add
// common aliases. "In each case, we emailed the complete set of addresses
// in case any individual address was invalid."
func (c *Campaign) DiscoverAddresses(domain string) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(addr string) {
		addr = strings.ToLower(strings.TrimSpace(addr))
		if addr != "" && strings.Contains(addr, "@") && !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	// 1. The site's own contact page (a real fetch and DOM walk).
	if page, err := c.Browser.Get("http://" + domain + "/contact"); err == nil && page.OK() {
		page.DOM.Walk(func(n *htmldom.Node) bool {
			if n.Tag == "a" {
				if href, ok := n.Attr("href"); ok {
					if addr, found := strings.CutPrefix(href, "mailto:"); found {
						add(addr)
					}
				}
			}
			return true
		})
	}
	c.Browser.Release()
	// 2. Domain WHOIS registrant (skipping expired contact domains).
	if w, ok := c.Universe.Whois(domain); ok && !w.Expired {
		add(w.Registrant)
	}
	// 3. Common aliases.
	for _, alias := range commonAliases {
		add(alias + "@" + domain)
	}
	return out
}

// Notify sends the first disclosure message to domain at the current
// virtual time and schedules the site's (possible) response.
func (c *Campaign) Notify(domain string) *Notification {
	now := c.Sched.Clock().Now()
	n := &Notification{Domain: domain, SentAt: now}
	c.notifications = append(c.notifications, n)

	site, ok := c.Universe.Site(domain)
	if !ok {
		n.Outcome = OutcomeBounced
		return n
	}
	deliverable := !site.NoMX
	if c.DNS != nil {
		deliverable = c.DNS.CanReceiveMail(domain)
	}
	if !deliverable {
		// Site J: "no MX record" — nothing is deliverable at the domain.
		n.Outcome = OutcomeBounced
		return n
	}
	n.Addresses = c.DiscoverAddresses(domain)
	if len(n.Addresses) == 0 {
		n.Outcome = OutcomeBounced
		return n
	}
	if !site.Responds {
		n.Outcome = OutcomeNoResponse
		return n
	}
	c.Sched.After(site.ResponseDelay, func(at time.Time) {
		n.Outcome = OutcomeResponded
		n.Reaction = site.Reaction
		n.RespondedAfter = at.Sub(n.SentAt)
		// The paper followed up with methodology and specifics; responsive
		// sites exchanged a handful of messages (calls omitted).
		switch site.Reaction {
		case webgen.ReactAutoTicket:
			n.FollowUps = 0
		case webgen.ReactCorroborate, webgen.ReactAcknowledge:
			n.FollowUps = 3
		default:
			n.FollowUps = 2
		}
	})
	return n
}

// Notifications returns all records, ordered by domain for stable output.
func (c *Campaign) Notifications() []*Notification {
	out := make([]*Notification, len(c.notifications))
	copy(out, c.notifications)
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Summary aggregates a campaign the way §6.3 reports it.
type Summary struct {
	Notified     int
	Responded    int
	Bounced      int
	Corroborated int
	Disputed     int
	Acknowledged int
	AutoTicket   int
	// FastestResponse / SlowestResponse bound first-reply latency among
	// responders.
	FastestResponse, SlowestResponse time.Duration
}

// Summarize rolls up the campaign.
func Summarize(notifications []*Notification) Summary {
	s := Summary{}
	for _, n := range notifications {
		s.Notified++
		switch n.Outcome {
		case OutcomeBounced:
			s.Bounced++
		case OutcomeResponded:
			s.Responded++
			if s.FastestResponse == 0 || n.RespondedAfter < s.FastestResponse {
				s.FastestResponse = n.RespondedAfter
			}
			if n.RespondedAfter > s.SlowestResponse {
				s.SlowestResponse = n.RespondedAfter
			}
			switch n.Reaction {
			case webgen.ReactCorroborate:
				s.Corroborated++
			case webgen.ReactDispute:
				s.Disputed++
			case webgen.ReactAcknowledge:
				s.Acknowledged++
			case webgen.ReactAutoTicket:
				s.AutoTicket++
			}
		}
	}
	return s
}

// Render formats the §6.3 disclosure summary.
func Render(s Summary) string {
	var b strings.Builder
	b.WriteString("Disclosure outcomes (paper §6.3)\n")
	fmt.Fprintf(&b, "  Sites notified:            %d\n", s.Notified)
	fmt.Fprintf(&b, "  Responded:                 %d\n", s.Responded)
	fmt.Fprintf(&b, "  No response:               %d\n", s.Notified-s.Responded-s.Bounced)
	fmt.Fprintf(&b, "  Undeliverable:             %d (no MX / dead addresses)\n", s.Bounced)
	if s.Responded > 0 {
		fmt.Fprintf(&b, "  First-reply latency:       %s .. %s\n",
			s.FastestResponse.Round(time.Minute), s.SlowestResponse.Round(time.Minute))
	}
	fmt.Fprintf(&b, "  Corroborated breach:       %d\n", s.Corroborated)
	fmt.Fprintf(&b, "  Disputed, no alternative:  %d\n", s.Disputed)
	fmt.Fprintf(&b, "  Acknowledged:              %d\n", s.Acknowledged)
	fmt.Fprintf(&b, "  Swallowed by ticketing:    %d\n", s.AutoTicket)
	return b.String()
}
