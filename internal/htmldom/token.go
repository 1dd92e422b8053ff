// Package htmldom implements a small HTML tokenizer, a lenient tree parser,
// and a queryable DOM. It is the document substrate for the headless
// browser (internal/browser) that replaces the paper's PhantomJS/WebKit
// engine: the crawler's registration heuristics run weighted regular
// expressions over these nodes exactly as the paper's heuristics ran over
// WebKit's DOM.
//
// The parser is deliberately forgiving, in the spirit of real browsers:
// unknown tags, stray end tags, and unclosed elements never fail; they
// produce the most reasonable tree.
//
// The tokenizer streams: Parse consumes tokens one at a time from a
// Tokenizer without materializing a token slice, tag and attribute names
// are interned, entity decoding has an allocation-free fast path, and an
// Arena recycles node and attribute storage across documents, so the
// steady-state crawl loop parses pages with a near-minimal number of
// allocations.
package htmldom

import (
	"strings"
)

// TokenType identifies the kind of a lexical token.
type TokenType int

const (
	// TextToken is character data between tags.
	TextToken TokenType = iota
	// StartTagToken is <name attr="v">.
	StartTagToken
	// EndTagToken is </name>.
	EndTagToken
	// SelfClosingTagToken is <name/>.
	SelfClosingTagToken
	// CommentToken is <!-- ... -->.
	CommentToken
	// DoctypeToken is <!DOCTYPE ...>.
	DoctypeToken
)

// Attr is a single name="value" attribute. Names are lower-cased by the
// tokenizer; values are entity-decoded.
type Attr struct {
	Key string
	Val string
}

// Token is one lexical token.
type Token struct {
	Type  TokenType
	Data  string // tag name (lower-case) or text/comment content
	Attrs []Attr
}

// Tokenizer lexes a document incrementally. The zero value is not usable;
// construct with NewTokenizer. Adjacent text may be emitted as multiple
// TextTokens (Tokenize and Parse coalesce them); malformed markup never
// fails, it degrades to text.
type Tokenizer struct {
	src string
	i   int
	// queue holds tokens already lexed but not yet returned: the raw-text
	// body and close tag of a <script>/<style> element are produced
	// together with its start tag.
	queue [2]Token
	qn    int // tokens in queue
	qi    int // next queue slot to return
	// arena backs every token's Attrs slice, so a document costs a handful
	// of attribute allocations rather than one per tag, and none once the
	// arena is warm.
	arena *Arena
}

// NewTokenizer returns a tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src, arena: new(Arena)}
}

// Next returns the next token. ok is false when the input is exhausted.
func (z *Tokenizer) Next() (tok Token, ok bool) {
	if z.qi < z.qn {
		tok = z.queue[z.qi]
		z.qi++
		return tok, true
	}
	src, n := z.src, len(z.src)
	for z.i < n {
		i := z.i
		if src[i] != '<' {
			return z.lexText(), true
		}
		// src[i] == '<'
		if i+1 >= n {
			z.i = n
			return Token{Type: TextToken, Data: DecodeEntities(src[i:])}, true
		}
		switch {
		case strings.HasPrefix(src[i:], "<!--"):
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				z.i = n
				return Token{Type: CommentToken, Data: src[i+4:]}, true
			}
			z.i = i + 4 + end + 3
			return Token{Type: CommentToken, Data: src[i+4 : i+4+end]}, true
		case src[i+1] == '!':
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				z.i = n
				return Token{Type: TextToken, Data: DecodeEntities(src[i:])}, true
			}
			z.i = i + end + 1
			return Token{Type: DoctypeToken, Data: strings.TrimSpace(src[i+2 : i+end])}, true
		case src[i+1] == '/':
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				z.i = n
				return Token{Type: TextToken, Data: DecodeEntities(src[i:])}, true
			}
			z.i = i + end + 1
			name := lowerName(strings.TrimSpace(src[i+2 : i+end]))
			if isTagName(name) {
				return Token{Type: EndTagToken, Data: name}, true
			}
			continue // dropped invalid end tag: no token
		case isNameStart(src[i+1]):
			tok, adv := z.lexStartTag(src[i:])
			z.i = i + adv
			// Raw-text elements: swallow everything up to the matching
			// close tag so scripts/styles never parse as markup.
			if tok.Type == StartTagToken && (tok.Data == "script" || tok.Data == "style") {
				z.queueRawText(tok.Data)
			}
			return tok, true
		default:
			// A lone '<' that does not begin a tag is text; lexText
			// consumes it together with any following character data.
			return z.lexText(), true
		}
	}
	return Token{}, false
}

// lexText consumes a maximal run of character data starting at z.i. Lone
// '<' characters that do not open a tag, comment, or doctype are part of
// the run.
func (z *Tokenizer) lexText() Token {
	src, n := z.src, len(z.src)
	start := z.i
	i := start
	for {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			i = n
			break
		}
		i += lt
		if i+1 >= n {
			i = n // trailing '<' is text
			break
		}
		c := src[i+1]
		if c == '!' || c == '/' || isNameStart(c) {
			break // a construct begins here (it may still degrade to text)
		}
		i++ // lone '<': keep scanning
	}
	z.i = i
	return Token{Type: TextToken, Data: DecodeEntities(src[start:i])}
}

// queueRawText lexes the raw-text body and close tag of a just-opened
// <script>/<style> element into the token queue.
func (z *Tokenizer) queueRawText(name string) {
	src, n := z.src, len(z.src)
	i := z.i
	z.qn, z.qi = 0, 0
	idx := indexCloseTag(src[i:], name)
	if idx < 0 {
		if i < n {
			z.queue[z.qn] = Token{Type: TextToken, Data: DecodeEntities(src[i:])}
			z.qn++
		}
		z.i = n
		return
	}
	if idx > 0 {
		z.queue[z.qn] = Token{Type: TextToken, Data: src[i : i+idx]}
		z.qn++
	}
	z.queue[z.qn] = Token{Type: EndTagToken, Data: name}
	z.qn++
	gt := strings.IndexByte(src[i+idx:], '>')
	if gt < 0 {
		z.i = n
	} else {
		z.i = i + idx + gt + 1
	}
}

// indexCloseTag returns the index of the first "</name" in s, matched
// ASCII-case-insensitively, or -1. It replaces lower-casing the whole
// remaining document per raw-text element.
func indexCloseTag(s, name string) int {
	for j := 0; ; {
		k := strings.Index(s[j:], "</")
		if k < 0 {
			return -1
		}
		j += k
		if len(s)-j >= 2+len(name) && asciiFoldEqual(s[j+2:j+2+len(name)], name) {
			return j
		}
		j += 2
	}
}

// asciiFoldEqual reports whether a equals b under ASCII case folding; b
// must already be lower-case.
func asciiFoldEqual(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		c := a[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != b[i] {
			return false
		}
	}
	return true
}

// Tokenize lexes src into tokens. It never fails: malformed markup
// degrades to text. Adjacent text is coalesced, matching what Parse builds.
func Tokenize(src string) []Token {
	var toks []Token
	z := Tokenizer{src: src, arena: new(Arena)}
	for {
		tok, ok := z.Next()
		if !ok {
			return toks
		}
		if tok.Type == TextToken {
			if tok.Data == "" {
				continue
			}
			if len(toks) > 0 && toks[len(toks)-1].Type == TextToken {
				toks[len(toks)-1].Data += tok.Data
				continue
			}
		}
		toks = append(toks, tok)
	}
}

// lexStartTag lexes a start tag beginning at src[0] == '<'. It returns the
// token and the number of bytes consumed.
func (z *Tokenizer) lexStartTag(src string) (Token, int) {
	i := 1
	n := len(src)
	start := i
	for i < n && isNameChar(src[i]) {
		i++
	}
	tok := Token{Type: StartTagToken, Data: lowerName(src[start:i])}
	for {
		for i < n && isSpace(src[i]) {
			i++
		}
		if i >= n {
			return tok, n
		}
		if src[i] == '>' {
			return tok, i + 1
		}
		if src[i] == '/' {
			// Possibly self-closing.
			j := i + 1
			for j < n && isSpace(src[j]) {
				j++
			}
			if j < n && src[j] == '>' {
				tok.Type = SelfClosingTagToken
				return tok, j + 1
			}
			i++
			continue
		}
		// Attribute name.
		aStart := i
		for i < n && src[i] != '=' && src[i] != '>' && src[i] != '/' && !isSpace(src[i]) {
			i++
		}
		name := lowerName(src[aStart:i])
		val := ""
		for i < n && isSpace(src[i]) {
			i++
		}
		if i < n && src[i] == '=' {
			i++
			for i < n && isSpace(src[i]) {
				i++
			}
			if i < n && (src[i] == '"' || src[i] == '\'') {
				q := src[i]
				i++
				vStart := i
				for i < n && src[i] != q {
					i++
				}
				val = src[vStart:i]
				if i < n {
					i++ // closing quote
				}
			} else {
				vStart := i
				for i < n && !isSpace(src[i]) && src[i] != '>' {
					i++
				}
				val = src[vStart:i]
			}
		}
		if name != "" {
			tok.Attrs = z.arena.attrs.push(Attr{Key: name, Val: DecodeEntities(val)}, len(tok.Attrs))
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' }

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

func isTagName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i]) {
			return false
		}
	}
	return true
}

// internTable dedups the tag and attribute names that dominate real
// markup so mixed-case input does not allocate a lower-cased copy per
// node. (Already-lower-case names skip it: they are substrings of the
// source and free.)
var internTable = func() map[string]string {
	names := []string{
		// tags
		"html", "head", "title", "meta", "link", "body", "div", "span",
		"p", "a", "ul", "ol", "li", "h1", "h2", "h3", "h4", "br", "hr",
		"img", "form", "input", "label", "select", "option", "textarea",
		"button", "table", "tr", "td", "th", "thead", "tbody", "script",
		"style", "strong", "em", "b", "i", "small", "footer", "header",
		"nav", "section", "article",
		// attributes
		"id", "class", "href", "src", "alt", "name", "value", "type",
		"action", "method", "placeholder", "required", "for", "rel",
		"content", "charset", "checked", "selected", "disabled",
		"data-sitekey",
	}
	m := make(map[string]string, len(names))
	for _, s := range names {
		m[s] = s
	}
	return m
}()

// lowerName lower-cases an ASCII tag/attribute name, interning common
// names and avoiding any allocation when s is already lower-case.
func lowerName(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		// Already lower-case: s is a zero-copy substring of the source,
		// which the tree pins anyway through its text nodes — interning
		// would only trade a map lookup per name for nothing.
		return s
	}
	if len(s) <= 64 {
		var buf [64]byte
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		// Map lookup with a converted []byte key does not allocate.
		if in, ok := internTable[string(buf[:len(s)])]; ok {
			return in
		}
		return string(buf[:len(s)])
	}
	return strings.ToLower(s)
}

// DecodeEntities decodes the common named HTML entities and numeric
// character references. When s contains nothing decodable it is returned
// as-is, with no allocation.
func DecodeEntities(s string) string {
	i := strings.IndexByte(s, '&')
	if i < 0 {
		return s
	}
	var b strings.Builder
	started := false
	start := 0 // beginning of the pending literal run
	for i < len(s) {
		if s[i] != '&' {
			next := strings.IndexByte(s[i:], '&')
			if next < 0 {
				break
			}
			i += next
		}
		r, width, ok := decodeEntity(s[i:])
		if !ok {
			i++
			continue
		}
		if !started {
			b.Grow(len(s))
			started = true
		}
		b.WriteString(s[start:i])
		b.WriteRune(r)
		i += width
		start = i
	}
	if !started {
		return s
	}
	b.WriteString(s[start:])
	return b.String()
}

// decodeEntity decodes one entity at s[0] == '&'. width is the number of
// input bytes consumed.
func decodeEntity(s string) (r rune, width int, ok bool) {
	semi := strings.IndexByte(s, ';')
	if semi < 0 || semi > 10 {
		return 0, 0, false
	}
	ent := s[1:semi]
	switch ent {
	case "amp":
		return '&', semi + 1, true
	case "lt":
		return '<', semi + 1, true
	case "gt":
		return '>', semi + 1, true
	case "quot":
		return '"', semi + 1, true
	case "apos":
		return '\'', semi + 1, true
	case "nbsp":
		return ' ', semi + 1, true
	}
	if strings.HasPrefix(ent, "#") {
		if v := parseNumericRef(ent[1:]); v >= 0 {
			return rune(v), semi + 1, true
		}
	}
	return 0, 0, false
}

func parseNumericRef(s string) int {
	base := 10
	if len(s) > 1 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	if s == "" {
		return -1
	}
	v := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		default:
			return -1
		}
		v = v*base + d
		if v > 0x10FFFF {
			return -1
		}
	}
	return v
}
