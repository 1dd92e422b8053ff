package crawler

import (
	"regexp"
	"regexp/syntax"
	"strings"
	"sync"

	"tripwire/internal/browser"
)

// Meaning is the crawler's guess at what a form field is asking for. It is
// deliberately independent of the synthetic web's ground truth: the crawler
// recovers meaning from rendered markup alone, exactly as the paper's
// heuristics did against live sites.
type Meaning int

// Field meanings the filler knows how to satisfy.
const (
	MeaningUnknown Meaning = iota
	MeaningEmail
	MeaningPassword
	MeaningConfirmPassword
	MeaningUsername
	MeaningFirstName
	MeaningLastName
	MeaningFullName
	MeaningZip
	MeaningPhone
	MeaningDOB
	MeaningState
	MeaningTOS
	MeaningNewsletter
	MeaningCaptcha
	MeaningHidden
	MeaningCreditCard
	MeaningSearch
)

// String names the meaning.
func (m Meaning) String() string {
	names := [...]string{
		"unknown", "email", "password", "confirm-password", "username",
		"first-name", "last-name", "full-name", "zip", "phone", "dob",
		"state", "tos", "newsletter", "captcha", "hidden", "credit-card",
		"search",
	}
	if int(m) < len(names) {
		return names[m]
	}
	return "Meaning(?)"
}

// rule is one weighted regular expression, the paper's §4.3.1 heuristic
// primitive: "a series of weighted regular expressions and sets of DOM
// elements to which they apply."
//
// Rules are matched against pre-lowered text: instead of compiling with
// (?i) and letting every MatchString case-fold its way through the page,
// the pattern itself is lowered at construction and each caller lowers its
// input exactly once. lits is a prefilter — literal substrings extracted
// from the pattern such that any match must contain at least one of them —
// letting score skip the regex engine for the common no-match case.
type rule struct {
	re     *regexp.Regexp
	lits   []string
	weight float64
}

func rules(pairs ...any) []rule {
	var out []rule
	for i := 0; i < len(pairs); i += 2 {
		pat := pairs[i].(string)
		// Lowering the pattern must not change its meaning: an upper-case
		// escape class (\B, \W, \D, \S, \P) would silently invert.
		for j := 0; j+1 < len(pat); j++ {
			if pat[j] == '\\' && pat[j+1] >= 'A' && pat[j+1] <= 'Z' {
				panic("crawler: rule pattern uses upper-case escape, incompatible with lowered matching: " + pat)
			}
		}
		low := strings.ToLower(pat)
		out = append(out, rule{
			re:     regexp.MustCompile(low),
			lits:   requiredLits(low),
			weight: toF(pairs[i+1]),
		})
	}
	return out
}

func toF(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case float64:
		return x
	default:
		panic("crawler: rule weight must be numeric")
	}
}

// requiredLits extracts literal substrings from pat such that every match
// of pat contains at least one of them, or nil when no such guarantee can
// be derived. The set drives score's Contains prefilter.
func requiredLits(pat string) []string {
	re, err := syntax.Parse(pat, syntax.Perl)
	if err != nil {
		return nil
	}
	lits, ok := litsOf(re.Simplify())
	if !ok {
		return nil
	}
	return lits
}

func litsOf(re *syntax.Regexp) ([]string, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase != 0 || len(re.Rune) == 0 {
			return nil, false
		}
		return []string{string(re.Rune)}, true
	case syntax.OpCapture, syntax.OpPlus:
		return litsOf(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return litsOf(re.Sub[0])
		}
		return nil, false
	case syntax.OpConcat:
		// Any single required sub suffices; prefer the most selective one
		// (longest minimum literal).
		var best []string
		bestLen := 0
		for _, sub := range re.Sub {
			if lits, ok := litsOf(sub); ok {
				if l := minLitLen(lits); l > bestLen {
					best, bestLen = lits, l
				}
			}
		}
		return best, best != nil
	case syntax.OpAlternate:
		// Every branch must contribute, else a match could avoid the set.
		var all []string
		for _, sub := range re.Sub {
			lits, ok := litsOf(sub)
			if !ok {
				return nil, false
			}
			all = append(all, lits...)
		}
		return all, true
	}
	return nil, false
}

func minLitLen(lits []string) int {
	m := len(lits[0])
	for _, l := range lits[1:] {
		if len(l) < m {
			m = len(l)
		}
	}
	return m
}

// score sums the weights of rules matching text. text must already be
// lower-cased; rules are compiled lowered to match.
func score(rs []rule, text string) float64 {
	var s float64
	for _, r := range rs {
		if r.lits != nil && !containsAny(text, r.lits) {
			continue
		}
		if r.re.MatchString(text) {
			s += r.weight
		}
	}
	return s
}

func containsAny(text string, lits []string) bool {
	for _, l := range lits {
		if strings.Contains(text, l) {
			return true
		}
	}
	return false
}

// fieldRules maps each meaning to its scoring rules, applied to a field's
// Context() (name, id, label, placeholder).
var fieldRules = map[Meaning][]rule{
	MeaningEmail: rules(
		`e-?mail`, 3.0,
		`\bmail\b`, 1.5,
		`@`, 1.0,
		`address`, 0.3,
	),
	MeaningConfirmPassword: rules(
		`(confirm|repeat|verify|again|re-?type).*(pass|pwd)`, 4.0,
		`(pass|pwd).*(confirm|repeat|verify|again|2\b)`, 4.0,
		`password2|pass2`, 4.0,
	),
	MeaningPassword: rules(
		`pass(word)?|pwd|passwd`, 3.0,
	),
	MeaningUsername: rules(
		`user ?name|nick(name)?|\blogin\b|display name|screen ?name`, 3.0,
		`\buser\b`, 2.0,
		`choose a username`, 2.0,
	),
	MeaningFirstName: rules(
		`first.?name|given.?name|\bfname\b`, 3.0,
	),
	MeaningLastName: rules(
		`last.?name|sur.?name|family.?name|\blname\b`, 3.0,
	),
	MeaningFullName: rules(
		`full.?name|real.?name|your name`, 3.0,
		`^name | name$|\bname\b`, 1.2,
	),
	MeaningZip: rules(
		`zip|postal`, 3.0,
	),
	MeaningPhone: rules(
		`phone|mobile|telephone|cell`, 3.0,
	),
	MeaningDOB: rules(
		`birth|\bdob\b|birthday`, 3.0,
	),
	MeaningState: rules(
		`state|region|province`, 3.0,
	),
	MeaningTOS: rules(
		`terms|\btos\b|agree|accept|conditions|privacy`, 3.0,
	),
	MeaningNewsletter: rules(
		`newsletter|subscribe|updates|offers|optin|mailing`, 3.0,
	),
	MeaningCaptcha: rules(
		`captcha|security.?code|verification|code shown|prove you|human|security.?check`, 3.0,
	),
	MeaningCreditCard: rules(
		`card|credit|\bcc[_-]?num`, 3.0,
	),
	MeaningSearch: rules(
		`\bq\b|search|query`, 3.0,
	),
}

// classifyPriority fixes the meaning-selection order. It must list every
// key of fieldRules exactly once (a regression test enforces this):
// classification iterates this slice, never the fieldRules map, so Go's
// randomized map-range order can never influence the outcome.
//
// Tie-break rule: candidates are scanned in this order and a later meaning
// replaces the best only on a strictly greater score, so on equal scores
// the earlier (more specific) meaning wins — confirm-password before
// password, first/last name before full name.
var classifyPriority = []Meaning{
	MeaningCaptcha, MeaningConfirmPassword, MeaningPassword, MeaningEmail,
	MeaningUsername, MeaningFirstName, MeaningLastName, MeaningZip,
	MeaningPhone, MeaningDOB, MeaningState, MeaningTOS, MeaningNewsletter,
	MeaningCreditCard, MeaningSearch, MeaningFullName,
}

// classifyThreshold is the minimum score to accept a meaning.
const classifyThreshold = 1.5

// classifyCache memoizes classification by (input type, context).
// classifyUncached is a pure function of those two strings, so memoized
// results are exact — re-visited pages (the paper's monthly re-crawls)
// skip the weighted-regex scan entirely, and worker-count invariance is
// untouched because a cache hit returns byte-for-byte what a fresh
// computation would. The two-level map keeps lookups allocation-free.
var classifyCache = struct {
	sync.RWMutex
	m map[string]map[string]Meaning
	n int
}{m: make(map[string]map[string]Meaning)}

// classifyCacheMax bounds the memo; on overflow the whole cache resets
// (simple, and correctness never depends on residency).
const classifyCacheMax = 1 << 13

// ClassifyField guesses a field's meaning from its markup context.
func ClassifyField(f *browser.Field) Meaning {
	if f.Type == "hidden" {
		return MeaningHidden
	}
	ctx := f.Context()
	classifyCache.RLock()
	m, ok := classifyCache.m[f.Type][ctx]
	classifyCache.RUnlock()
	if ok {
		classifyHits.Add(1)
		return m
	}
	classifyMisses.Add(1)
	m = classifyUncached(f.Type, ctx)
	classifyCache.Lock()
	if classifyCache.n >= classifyCacheMax {
		classifyCache.m = make(map[string]map[string]Meaning)
		classifyCache.n = 0
	}
	inner := classifyCache.m[f.Type]
	if inner == nil {
		inner = make(map[string]Meaning)
		classifyCache.m[f.Type] = inner
	}
	if _, dup := inner[ctx]; !dup {
		inner[ctx] = m
		classifyCache.n++
	}
	classifyCache.Unlock()
	return m
}

// classifyUncached scores a (type, context) pair against the heuristics.
// ctx must be lower-cased (browser.Field.Context lowers it).
func classifyUncached(typ, ctx string) Meaning {
	// Structural signals first: input type is the strongest evidence a
	// rendering engine offers.
	switch typ {
	case "password":
		// Distinguish confirm-password by textual context.
		if score(fieldRules[MeaningConfirmPassword], ctx) >= classifyThreshold {
			return MeaningConfirmPassword
		}
		return MeaningPassword
	case "email":
		return MeaningEmail
	case "checkbox":
		if score(fieldRules[MeaningNewsletter], ctx) > score(fieldRules[MeaningTOS], ctx) {
			return MeaningNewsletter
		}
		if score(fieldRules[MeaningTOS], ctx) >= classifyThreshold {
			return MeaningTOS
		}
		return MeaningUnknown
	case "select":
		if score(fieldRules[MeaningState], ctx) >= classifyThreshold {
			return MeaningState
		}
		if score(fieldRules[MeaningDOB], ctx) >= classifyThreshold {
			return MeaningDOB
		}
		return MeaningUnknown
	}
	best, bestScore := MeaningUnknown, 0.0
	for _, m := range classifyPriority {
		if s := score(fieldRules[m], ctx); s > bestScore {
			best, bestScore = m, s
		}
	}
	if bestScore < classifyThreshold {
		return MeaningUnknown
	}
	return best
}

// Registration-link scoring (applied to anchor text and href).
var (
	regLinkTextRules = rules(
		`sign\s?up`, 3.0,
		`register`, 3.0,
		`create (an )?(account|profile)`, 3.0,
		`join( now| free)?\b`, 2.2,
		`registration`, 2.5,
		`get started`, 1.5,
		`new user`, 2.0,
		`create account`, 3.0,
	)
	regLinkHrefRules = rules(
		`/(register|registration|signup|sign-up|join|create-account)`, 2.0,
		`/(account|users?)/(new|register|signup)`, 2.0,
	)
	regLinkNegative = rules(
		`\b(log|sign)\s?in\b|logout|password reset|forgot`, -4.0,
		`privacy|terms|help|contact|about`, -2.0,
	)
)

// ScoreRegistrationLink returns the heuristic score that a link leads to a
// registration page.
func ScoreRegistrationLink(l browser.Link) float64 {
	return scoreRegistrationLinkLower(strings.ToLower(l.Text), strings.ToLower(l.URL.Path))
}

// scoreRegistrationLinkLower is ScoreRegistrationLink over text and path
// the caller has already lower-cased (once per link, not once per rule).
func scoreRegistrationLinkLower(text, path string) float64 {
	return score(regLinkTextRules, text) +
		score(regLinkHrefRules, path) +
		score(regLinkNegative, text)
}

// Registration-page and submission-outcome heuristics.
var (
	regPageTextRules = rules(
		`create (your |an )?account`, 2.0,
		`sign\s?up`, 1.5,
		`register`, 1.5,
		`join`, 0.8,
	)
	successRules = rules(
		`thank(s| you)`, 2.5,
		`success`, 2.5,
		`account (has been|was) created`, 3.0,
		`welcome`, 2.0,
		`verify your (e-?mail|account)`, 2.5,
		`check your (e-?mail|inbox)`, 2.5,
		`registration (complete|successful)`, 3.0,
	)
	failureRules = rules(
		`\berror\b`, 3.0,
		`invalid`, 3.0,
		`incorrect`, 3.0,
		`(already|is) taken`, 3.0,
		`missing`, 2.5,
		`expired`, 2.5,
		`must be|does not match|do not match|too (short|long)`, 2.5,
		`try again`, 2.0,
		`please correct`, 3.0,
	)
)

// LooksLikeSuccess evaluates a post-submission page: success keywords must
// outscore failure keywords and clear a minimum bar.
func LooksLikeSuccess(pageText string) bool {
	return looksLikeSuccessLower(strings.ToLower(pageText))
}

// looksLikeSuccessLower is LooksLikeSuccess over already-lowered text.
func looksLikeSuccessLower(lower string) bool {
	succ := score(successRules, lower)
	fail := score(failureRules, lower)
	return succ >= 2.0 && succ > fail
}

// FormScore rates how much a form looks like a registration form. Forms
// without a password field score zero; email evidence, confirm-password,
// and surrounding page text all add weight; login-shaped forms (password +
// a single identifier, few fields) are penalized.
func FormScore(f *browser.Form, pageText string) float64 {
	return formScore(f, func() string { return strings.ToLower(pageText) })
}

// formScore is FormScore with the page text supplied lowered by lowered,
// which it calls only for a form with a password field: any other form
// scores zero whatever its page says.
func formScore(f *browser.Form, lowered func() string) float64 {
	var hasPassword, hasConfirm, hasEmailish bool
	fillable := 0
	for i := range f.Fields {
		fld := &f.Fields[i]
		switch ClassifyField(fld) {
		case MeaningPassword:
			hasPassword = true
		case MeaningConfirmPassword:
			hasConfirm = true
		case MeaningEmail:
			hasEmailish = true
		}
		if fld.Type != "hidden" && fld.Type != "submit" && fld.Name != "" {
			fillable++
		}
	}
	if !hasPassword {
		return 0
	}
	s := 2.0
	if hasEmailish {
		s += 3.0
	}
	if hasConfirm {
		s += 2.0
	}
	if fillable >= 3 {
		s += 1.0
	}
	if fillable <= 2 && !hasEmailish {
		s -= 3.0 // login-shaped
	}
	lower := lowered()
	s += 0.5 * score(regPageTextRules, lower)
	if strings.Contains(lower, "log in") || strings.Contains(lower, "login") {
		s -= 0.5
	}
	return s
}
