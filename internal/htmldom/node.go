package htmldom

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// NodeType identifies the kind of a DOM node.
type NodeType int

const (
	// DocumentNode is the root of a parsed document.
	DocumentNode NodeType = iota
	// ElementNode is a tag with attributes and children.
	ElementNode
	// TextNode holds character data.
	TextNode
	// CommentNode holds a comment's content.
	CommentNode
)

// Node is a DOM node. Fields are exported for read access; mutate through
// the tree-building parser only. Children are reached through FirstChild
// and NextSibling: three links instead of a per-node child slice keep a
// node at 96 bytes with no second allocation.
type Node struct {
	Type   NodeType
	Tag    string // element tag, lower-case (ElementNode only)
	Data   string // text or comment content
	Attrs  []Attr
	Parent *Node

	firstChild, prevSibling, nextSibling *Node
}

// FirstChild returns n's first child, or nil.
func (n *Node) FirstChild() *Node { return n.firstChild }

// NextSibling returns the node immediately after n under the same parent,
// or nil.
func (n *Node) NextSibling() *Node { return n.nextSibling }

// PrevSibling returns the node immediately before n under the same parent,
// or nil.
func (n *Node) PrevSibling() *Node { return n.prevSibling }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == name {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute's value, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// HasAttr reports whether the named attribute is present (even if empty, as
// with <input required>).
func (n *Node) HasAttr(name string) bool {
	_, ok := n.Attr(name)
	return ok
}

// ID returns the element's id attribute, or "".
func (n *Node) ID() string { return n.AttrOr("id", "") }

// bufPool recycles scratch byte buffers for Text and Render. Pooling the
// backing slice (rather than a strings.Builder, whose Reset discards it)
// is what makes repeated calls allocation-cheap.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// Text returns the concatenation of all descendant text, with runs of
// whitespace collapsed to single spaces and the result trimmed.
func (n *Node) Text() string {
	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	pending := false
	var collect func(*Node)
	collect = func(x *Node) {
		if x.Type == TextNode {
			buf, pending = appendCollapsed(buf, x.Data, pending)
			pending = true // text nodes are whitespace-separated
			return
		}
		for c := x.firstChild; c != nil; c = c.nextSibling {
			collect(c)
		}
	}
	collect(n)
	s := string(buf)
	*bp = buf
	bufPool.Put(bp)
	return s
}

// appendCollapsed appends s to buf with runs of Unicode whitespace
// collapsed to single spaces, trimming leading space when buf is empty.
// pending carries an unflushed separator between calls.
func appendCollapsed(buf []byte, s string, pending bool) ([]byte, bool) {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
				pending = true
				i++
				continue
			}
			if pending && len(buf) > 0 {
				buf = append(buf, ' ')
			}
			pending = false
			buf = append(buf, c)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			pending = true
			i += size
			continue
		}
		if pending && len(buf) > 0 {
			buf = append(buf, ' ')
		}
		pending = false
		// Append the original bytes, preserving invalid UTF-8 exactly as
		// strings.Fields would.
		buf = append(buf, s[i:i+size]...)
		i += size
	}
	return buf, pending
}

// Walk calls fn for n and every descendant in document order. If fn returns
// false the walk does not descend into that node's children.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for c := n.firstChild; c != nil; c = c.nextSibling {
		c.Walk(fn)
	}
}

// FindAll returns all descendant elements (including n itself if it is an
// element) satisfying pred, in document order.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Type == ElementNode && pred(x) {
			out = append(out, x)
		}
		return true
	})
	return out
}

// First returns the first descendant element satisfying pred, or nil.
func (n *Node) First(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(x *Node) bool {
		if found != nil {
			return false
		}
		if x.Type == ElementNode && pred(x) {
			found = x
			return false
		}
		return true
	})
	return found
}

// ElementsByTag returns all descendant elements with the given tag.
func (n *Node) ElementsByTag(tag string) []*Node {
	return n.FindAll(func(x *Node) bool { return x.Tag == tag })
}

// ByID returns the descendant element with the given id, or nil.
func (n *Node) ByID(id string) *Node {
	if id == "" {
		return nil
	}
	return n.First(func(x *Node) bool { return x.ID() == id })
}

// Ancestor returns the nearest ancestor (excluding n) with the given tag,
// or nil.
func (n *Node) Ancestor(tag string) *Node {
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Type == ElementNode && p.Tag == tag {
			return p
		}
	}
	return nil
}

// voidElements never take children.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// autoClose lists tags that implicitly close an open element of the same
// (or listed) tag, approximating real browser recovery behaviour.
var autoClose = map[string][]string{
	"li":     {"li"},
	"p":      {"p"},
	"option": {"option"},
	"tr":     {"tr", "td", "th"},
	"td":     {"td", "th"},
	"th":     {"td", "th"},
	"dd":     {"dd", "dt"},
	"dt":     {"dd", "dt"},
}

// Parse builds a DOM from src in a fresh Arena. It never fails.
func Parse(src string) *Node { return new(Arena).Parse(src) }

// Parse builds a DOM from src, taking its nodes and attributes from a. It
// never fails. The tree stays valid until a's next Reset. Tokens are
// consumed directly from the streaming tokenizer; no token slice is
// materialized.
func (a *Arena) Parse(src string) *Node {
	doc := a.newNode(Node{Type: DocumentNode})
	if a.stack == nil {
		a.stack = make([]openElement, 0, 16)
	}
	// Each open element carries its last child, so appending is O(1)
	// without a back link from the parent.
	stack := append(a.stack[:0], openElement{node: doc})
	top := func() *Node { return stack[len(stack)-1].node }
	appendChild := func(c *Node) {
		top := &stack[len(stack)-1]
		c.Parent = top.node
		if top.last == nil {
			top.node.firstChild = c
		} else {
			top.last.nextSibling = c
			c.prevSibling = top.last
		}
		top.last = c
	}
	// Adjacent text tokens (the tokenizer may split around degraded markup
	// and raw-text bodies) merge into one TextNode, as browsers build one
	// character-data run.
	pendingText := ""
	flushText := func() {
		if pendingText == "" {
			return
		}
		if !(top() == doc && strings.TrimSpace(pendingText) == "") {
			appendChild(a.newNode(Node{Type: TextNode, Data: pendingText}))
		}
		pendingText = ""
	}
	z := Tokenizer{src: src, arena: a}
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		if tok.Type == TextToken {
			if pendingText == "" {
				pendingText = tok.Data
			} else {
				pendingText += tok.Data
			}
			continue
		}
		flushText()
		switch tok.Type {
		case CommentToken:
			appendChild(a.newNode(Node{Type: CommentNode, Data: tok.Data}))
		case DoctypeToken:
			// Recorded nowhere: the crawler does not need it.
		case StartTagToken, SelfClosingTagToken:
			if closers, ok := autoClose[tok.Data]; ok {
				if t := top(); t.Type == ElementNode {
					for _, c := range closers {
						if t.Tag == c {
							stack = stack[:len(stack)-1]
							break
						}
					}
				}
			}
			el := a.newNode(Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs})
			appendChild(el)
			if tok.Type == StartTagToken && !voidElements[tok.Data] {
				stack = append(stack, openElement{node: el})
			}
		case EndTagToken:
			// Pop to the matching open element, if any; otherwise ignore.
			for j := len(stack) - 1; j >= 1; j-- {
				if stack[j].node.Tag == tok.Data {
					stack = stack[:j]
					break
				}
			}
		}
	}
	flushText()
	a.stack = stack[:0]
	return doc
}
