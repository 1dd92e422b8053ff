package htmldom

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize(`<html><body class="main">Hello <b>world</b></body></html>`)
	var kinds []TokenType
	for _, tk := range toks {
		kinds = append(kinds, tk.Type)
	}
	want := []TokenType{StartTagToken, StartTagToken, TextToken, StartTagToken, TextToken, EndTagToken, EndTagToken, EndTagToken}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d kind %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[1].Attrs[0].Key != "class" || toks[1].Attrs[0].Val != "main" {
		t.Fatalf("attr = %+v", toks[1].Attrs)
	}
}

func TestTokenizeAttributeForms(t *testing.T) {
	toks := Tokenize(`<input type='text' required name=user value="a&amp;b">`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	tok := toks[0]
	get := func(k string) (string, bool) {
		for _, a := range tok.Attrs {
			if a.Key == k {
				return a.Val, true
			}
		}
		return "", false
	}
	if v, _ := get("type"); v != "text" {
		t.Errorf("type = %q", v)
	}
	if _, ok := get("required"); !ok {
		t.Error("bare attribute 'required' missing")
	}
	if v, _ := get("name"); v != "user" {
		t.Errorf("unquoted name = %q", v)
	}
	if v, _ := get("value"); v != "a&b" {
		t.Errorf("entity-decoded value = %q", v)
	}
}

func TestTokenizeSelfClosingAndComments(t *testing.T) {
	toks := Tokenize(`<!DOCTYPE html><!-- hi --><br/><img src=x />`)
	if toks[0].Type != DoctypeToken {
		t.Fatalf("token 0 = %v", toks[0])
	}
	if toks[1].Type != CommentToken || strings.TrimSpace(toks[1].Data) != "hi" {
		t.Fatalf("comment = %+v", toks[1])
	}
	if toks[2].Type != SelfClosingTagToken || toks[2].Data != "br" {
		t.Fatalf("br = %+v", toks[2])
	}
	if toks[3].Type != SelfClosingTagToken || toks[3].Data != "img" {
		t.Fatalf("img = %+v", toks[3])
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	src := `<script>if (a < b) { document.write("<p>hi</p>"); }</script><p>after</p>`
	doc := Parse(src)
	if ps := doc.ElementsByTag("p"); len(ps) != 1 || ps[0].Text() != "after" {
		t.Fatalf("script content leaked into DOM: %d <p> elements", len(ps))
	}
	script := doc.ElementsByTag("script")[0]
	if !strings.Contains(script.FirstChild().Data, "a < b") {
		t.Fatalf("script text lost: %q", script.FirstChild().Data)
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"a&amp;b":        "a&b",
		"&lt;x&gt;":      "<x>",
		"&quot;q&quot;":  `"q"`,
		"&#65;&#x42;":    "AB",
		"no entities":    "no entities",
		"&bogus;":        "&bogus;",
		"&unterminated":  "&unterminated",
		"&nbsp;joined":   " joined",
		"&#xZZ; literal": "&#xZZ; literal",
	}
	for in, want := range cases {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseTree(t *testing.T) {
	doc := Parse(`<html><body><div id="a"><p>one</p><p>two</p></div></body></html>`)
	div := doc.ByID("a")
	if div == nil {
		t.Fatal("ByID(a) = nil")
	}
	ps := div.ElementsByTag("p")
	if len(ps) != 2 {
		t.Fatalf("got %d <p>, want 2 (auto-close p-in-p)", len(ps))
	}
	if ps[0].Text() != "one" || ps[1].Text() != "two" {
		t.Fatalf("texts = %q, %q", ps[0].Text(), ps[1].Text())
	}
	if ps[0].Parent != div {
		t.Fatal("parent pointer wrong")
	}
}

func TestParseUnclosedTags(t *testing.T) {
	doc := Parse(`<ul><li>one<li>two<li>three</ul><p>after`)
	lis := doc.ElementsByTag("li")
	if len(lis) != 3 {
		t.Fatalf("got %d <li>, want 3", len(lis))
	}
	for i, want := range []string{"one", "two", "three"} {
		if lis[i].Text() != want {
			t.Fatalf("li[%d] = %q, want %q", i, lis[i].Text(), want)
		}
	}
	if p := doc.First(func(n *Node) bool { return n.Tag == "p" }); p == nil || p.Text() != "after" {
		t.Fatal("trailing unclosed <p> lost")
	}
}

func TestParseStrayEndTagIgnored(t *testing.T) {
	doc := Parse(`<div>a</span>b</div>`)
	div := doc.ElementsByTag("div")[0]
	if got := div.Text(); got != "a b" && got != "ab" {
		t.Fatalf("div text = %q", got)
	}
}

func TestVoidElementsTakeNoChildren(t *testing.T) {
	doc := Parse(`<form><input name="a"><input name="b"></form>`)
	inputs := doc.ElementsByTag("input")
	if len(inputs) != 2 {
		t.Fatalf("got %d inputs, want 2", len(inputs))
	}
	for _, in := range inputs {
		if in.FirstChild() != nil {
			t.Fatalf("void element has children: %+v", in)
		}
	}
	if inputs[0].Parent.Tag != "form" || inputs[1].Parent.Tag != "form" {
		t.Fatal("inputs not siblings under form")
	}
}

// A tag with more attributes than an arena chunk holds keeps them all,
// contiguous and in order.
func TestParseManyAttributes(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<div a="1" b="2"><p`)
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, " x%d=%d", i, i)
	}
	b.WriteString(`>hi</p><br c="3"></div>`)
	doc := Parse(b.String())
	p := doc.ElementsByTag("p")[0]
	if len(p.Attrs) != 300 || p.Attrs[0].Key != "x0" || p.Attrs[299] != (Attr{Key: "x299", Val: "299"}) {
		t.Fatalf("got %d attributes, first %+v", len(p.Attrs), p.Attrs[0])
	}
	if got := doc.ElementsByTag("div")[0].AttrOr("b", ""); got != "2" {
		t.Fatalf("earlier tag's attribute clobbered: b=%q", got)
	}
	if got := doc.ElementsByTag("br")[0].AttrOr("c", ""); got != "3" {
		t.Fatalf("later tag's attribute lost: c=%q", got)
	}
}

// An Arena keeps every tree parsed into it intact until Reset, and after
// Reset parses a new document exactly as a fresh arena would.
func TestArenaKeepsTreesUntilReset(t *testing.T) {
	pages := []string{
		`<html><body><form action="/r"><label>Email</label><input name="e"></form></body></html>`,
		`<ul><li>one<li>two</ul><p>after &amp; more`,
		strings.Repeat(`<div class="c"><a href="/x">link</a> text</div>`, 40),
	}
	var a Arena
	for round := 0; round < 3; round++ {
		var docs []*Node
		for _, src := range pages {
			docs = append(docs, a.Parse(src))
		}
		for i, doc := range docs {
			if !Equal(doc, Parse(pages[i])) {
				t.Fatalf("round %d: page %d differs from a fresh parse:\n%s", round, i, Render(doc))
			}
		}
		a.Reset()
	}
}

func TestNodeTextCollapsesWhitespace(t *testing.T) {
	doc := Parse("<p>  hello\n\t  world  </p>")
	if got := doc.Text(); got != "hello world" {
		t.Fatalf("Text() = %q", got)
	}
}

func TestAttrHelpers(t *testing.T) {
	doc := Parse(`<a href="/x" id="link1">go</a>`)
	a := doc.ElementsByTag("a")[0]
	if v, ok := a.Attr("href"); !ok || v != "/x" {
		t.Fatalf("Attr(href) = %q, %v", v, ok)
	}
	if a.AttrOr("missing", "dflt") != "dflt" {
		t.Fatal("AttrOr default broken")
	}
	if !a.HasAttr("id") || a.HasAttr("nope") {
		t.Fatal("HasAttr broken")
	}
	if a.ID() != "link1" {
		t.Fatalf("ID() = %q", a.ID())
	}
}

func TestAncestorAndPrevSibling(t *testing.T) {
	doc := Parse(`<form><label>User</label><input name="u"></form>`)
	input := doc.ElementsByTag("input")[0]
	if f := input.Ancestor("form"); f == nil || f.Tag != "form" {
		t.Fatal("Ancestor(form) failed")
	}
	prev := input.PrevSibling()
	if prev == nil || prev.Tag != "label" {
		t.Fatalf("PrevSibling = %+v", prev)
	}
	if doc.PrevSibling() != nil {
		t.Fatal("document PrevSibling should be nil")
	}
}

func TestSelectOptionAutoClose(t *testing.T) {
	doc := Parse(`<select name="s"><option value="1">One<option value="2">Two</select>`)
	opts := doc.ElementsByTag("option")
	if len(opts) != 2 {
		t.Fatalf("got %d options, want 2", len(opts))
	}
	if opts[0].AttrOr("value", "") != "1" || opts[1].AttrOr("value", "") != "2" {
		t.Fatalf("option values wrong: %+v", opts)
	}
}

func TestTableRowAutoClose(t *testing.T) {
	doc := Parse(`<table><tr><td>a<td>b<tr><td>c</table>`)
	if trs := doc.ElementsByTag("tr"); len(trs) != 2 {
		t.Fatalf("got %d rows, want 2", len(trs))
	}
	if tds := doc.ElementsByTag("td"); len(tds) != 3 {
		t.Fatalf("got %d cells, want 3", len(tds))
	}
}

func TestWalkPruning(t *testing.T) {
	doc := Parse(`<div id="skip"><p>inner</p></div><p>outer</p>`)
	var seen []string
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			seen = append(seen, n.Tag)
		}
		return n.ID() != "skip"
	})
	for _, tag := range seen {
		if tag == "p" {
			// one <p> is outside the pruned subtree; ensure inner not seen
			// by checking count below.
			continue
		}
	}
	count := 0
	for _, tag := range seen {
		if tag == "p" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("Walk pruning failed: saw %d <p>", count)
	}
}

func TestLoneLessThanIsText(t *testing.T) {
	doc := Parse(`<p>1 < 2 and 3 > 2</p>`)
	if got := doc.Text(); !strings.Contains(got, "<") {
		t.Fatalf("lone '<' lost: %q", got)
	}
}

// Property: Parse never panics and yields a document whose links are
// consistent, for arbitrary byte soup: every child names its parent, the
// parent's FirstChild has no predecessor, and PrevSibling and NextSibling
// are inverses.
func TestQuickParseTotal(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		ok := doc.Parent == nil && doc.PrevSibling() == nil && doc.NextSibling() == nil
		doc.Walk(func(n *Node) bool {
			if first := n.FirstChild(); first != nil && first.PrevSibling() != nil {
				ok = false
			}
			for c := n.FirstChild(); c != nil; c = c.NextSibling() {
				if c.Parent != n {
					ok = false
				}
				if next := c.NextSibling(); next != nil && next.PrevSibling() != c {
					ok = false
				}
				if prev := c.PrevSibling(); prev != nil && prev.NextSibling() != c {
					ok = false
				}
			}
			return true
		})
		return ok && doc.Type == DocumentNode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: well-formed nested markup round-trips its text content.
func TestQuickNestedDivsPreserveText(t *testing.T) {
	f := func(depth uint8, payload string) bool {
		d := int(depth%10) + 1
		payload = strings.Map(func(r rune) rune {
			if r == '<' || r == '&' || r == '>' {
				return 'x'
			}
			return r
		}, payload)
		var b strings.Builder
		for i := 0; i < d; i++ {
			b.WriteString("<div>")
		}
		b.WriteString(payload)
		for i := 0; i < d; i++ {
			b.WriteString("</div>")
		}
		doc := Parse(b.String())
		return len(doc.ElementsByTag("div")) == d &&
			doc.Text() == strings.Join(strings.Fields(payload), " ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}
