package htmldom

// Render serializes a DOM back to HTML. Text is entity-escaped, attribute
// values are quoted and escaped, and void elements render without end tags,
// so Parse(Render(doc)) reproduces an equivalent tree. Render is mainly a
// debugging and testing aid: the crawler works on parsed trees, but tests
// use the round-trip property to validate the parser.
func Render(n *Node) string {
	bp := bufPool.Get().(*[]byte)
	buf := renderTo((*bp)[:0], n)
	s := string(buf)
	*bp = buf
	bufPool.Put(bp)
	return s
}

func renderTo(buf []byte, n *Node) []byte {
	switch n.Type {
	case DocumentNode:
		for c := n.firstChild; c != nil; c = c.nextSibling {
			buf = renderTo(buf, c)
		}
	case TextNode:
		buf = appendEscaped(buf, n.Data, false)
	case CommentNode:
		buf = append(buf, "<!--"...)
		buf = append(buf, n.Data...)
		buf = append(buf, "-->"...)
	case ElementNode:
		buf = append(buf, '<')
		buf = append(buf, n.Tag...)
		for _, a := range n.Attrs {
			buf = append(buf, ' ')
			buf = append(buf, a.Key...)
			buf = append(buf, `="`...)
			buf = appendEscaped(buf, a.Val, true)
			buf = append(buf, '"')
		}
		buf = append(buf, '>')
		if voidElements[n.Tag] {
			return buf
		}
		for c := n.firstChild; c != nil; c = c.nextSibling {
			buf = renderTo(buf, c)
		}
		buf = append(buf, "</"...)
		buf = append(buf, n.Tag...)
		buf = append(buf, '>')
	}
	return buf
}

// appendEscaped appends s with &, <, > (and, for attribute values, ")
// replaced by entities.
func appendEscaped(buf []byte, s string, attr bool) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var ent string
		switch s[i] {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			if !attr {
				continue
			}
			ent = "&quot;"
		default:
			continue
		}
		buf = append(buf, s[start:i]...)
		buf = append(buf, ent...)
		start = i + 1
	}
	return append(buf, s[start:]...)
}

func escapeText(s string) string {
	return string(appendEscaped(nil, s, false))
}

func escapeAttr(s string) string {
	return string(appendEscaped(nil, s, true))
}

// Equal reports whether two trees are structurally identical: same node
// types, tags, attributes (order-sensitive), and text content.
func Equal(a, b *Node) bool {
	if a.Type != b.Type || a.Tag != b.Tag || a.Data != b.Data {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	ca, cb := a.firstChild, b.firstChild
	for ; ca != nil && cb != nil; ca, cb = ca.nextSibling, cb.nextSibling {
		if !Equal(ca, cb) {
			return false
		}
	}
	return ca == nil && cb == nil
}
