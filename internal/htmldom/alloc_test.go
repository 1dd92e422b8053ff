package htmldom

import "testing"

// allocPage is a small but representative document: nesting, attributes,
// an entity, and text runs. Small on purpose — the budgets below are per
// structural feature, not amortized away by input size.
const allocPage = `<html><head><title>t</title></head><body><div class="x"><p>hello &amp; goodbye</p><a href="/reg">Sign up</a></div></body></html>`

// TestParseAllocBudget pins the allocation count of the streaming parse
// path. A fresh Arena hands out nodes and attributes in chunks and the
// tokenizer feeds the parser without materializing a token slice, so the
// whole parse of allocPage costs a fixed handful of allocations. The
// budget is the measured count plus slack of two; a regression that
// reintroduces per-token or per-node allocation blows well past it.
func TestParseAllocBudget(t *testing.T) {
	const budget = 7
	if got := testing.AllocsPerRun(200, func() { Parse(allocPage) }); got > budget {
		t.Errorf("Parse(allocPage) = %.1f allocs/op, budget %d", got, budget)
	}
}

// TestArenaParseAllocBudget pins the recycled path a browser session
// takes: a warmed Arena parses and resets allocPage with one allocation,
// the decoded "&amp;" text. Nodes, attributes and the parser's stack all
// come from storage the arena kept across Reset.
func TestArenaParseAllocBudget(t *testing.T) {
	var a Arena
	a.Parse(allocPage)
	a.Reset()
	got := testing.AllocsPerRun(200, func() {
		a.Parse(allocPage)
		a.Reset()
	})
	if got > 1 {
		t.Errorf("warm Arena.Parse+Reset(allocPage) = %.1f allocs/op, want <= 1", got)
	}
}

// TestTokenizeAllocBudget pins the streaming tokenizer on its own: a
// Tokenizer walk allocates only for attribute slices and non-interned
// names, never per token.
func TestTokenizeAllocBudget(t *testing.T) {
	const budget = 5
	got := testing.AllocsPerRun(200, func() {
		tz := NewTokenizer(allocPage)
		for {
			if _, ok := tz.Next(); !ok {
				break
			}
		}
	})
	if got > budget {
		t.Errorf("tokenizer walk = %.1f allocs/op, budget %d", got, budget)
	}
}

// TestDecodeEntitiesFastPathAllocs proves the two no-op fast paths are
// allocation-free: text without '&' returns before any scanning, and
// text whose ampersands decode to nothing returns the input string
// unchanged without ever starting a builder.
func TestDecodeEntitiesFastPathAllocs(t *testing.T) {
	cases := map[string]string{
		"no-ampersand":    "plain text with no references at all",
		"bare-ampersands": "a & b &x < > but no decodable refs &; &nosuch;",
	}
	for name, in := range cases {
		if got := testing.AllocsPerRun(200, func() { DecodeEntities(in) }); got != 0 {
			t.Errorf("%s: DecodeEntities = %.1f allocs/op, want 0", name, got)
		}
		if out := DecodeEntities(in); out != in {
			t.Errorf("%s: fast path changed the input: %q", name, out)
		}
	}
}

// TestTextRenderAllocBudget pins the pooled-buffer paths: extracting the
// collapsed text of a parsed document and re-serializing it each cost
// exactly one allocation — the final string copy out of the pooled buffer.
func TestTextRenderAllocBudget(t *testing.T) {
	doc := Parse(allocPage)
	if got := testing.AllocsPerRun(200, func() { doc.Text() }); got > 1 {
		t.Errorf("Text = %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(200, func() { Render(doc) }); got > 1 {
		t.Errorf("Render = %.1f allocs/op, want <= 1", got)
	}
}
