package browser

import (
	"fmt"
	"net/url"
	"strings"

	"tripwire/internal/htmldom"
)

// Field is one fillable control in a form, with the contextual text a
// heuristic can use to guess its meaning: name, id, label, placeholder.
type Field struct {
	Node        *htmldom.Node
	Tag         string // input, select, textarea
	Type        string // text, password, email, checkbox, hidden, submit...
	Name        string
	Value       string // default value from the markup
	Label       string // associated visible label text, if discoverable
	Placeholder string
	Required    bool
	Options     []string // select options (values)

	// ctx memoizes Context(): field attributes never change after
	// extraction, and the crawler's classifier asks for the context of the
	// same field repeatedly (once per scoring pass).
	ctx   string
	ctxOK bool
}

// Form is one parsed <form>.
type Form struct {
	Node   *htmldom.Node
	Action *url.URL
	Method string // GET or POST, upper-case
	Fields []Field
}

// Forms extracts every form on the page, resolving actions against the
// page URL and associating labels with controls the way a rendering engine
// would: <label for=id>, wrapping <label>, or the nearest preceding label
// in the same container. A control inside nested forms belongs to each.
func (p *Page) Forms() []*Form {
	p.walk()
	if len(p.forms) == 0 {
		return nil
	}
	forms := make([]Form, len(p.forms))
	out := make([]*Form, len(p.forms))
	for i, f := range p.forms {
		out[i] = &forms[i]
		p.fillForm(out[i], f)
	}
	return out
}

// fillForm builds form from the <form> element f in one pass over f's
// subtree, which collects its controls and its <label for=> elements.
func (p *Page) fillForm(form *Form, f *htmldom.Node) {
	form.Node = f
	form.Method = "GET"
	if strings.EqualFold(f.AttrOr("method", "GET"), "POST") {
		form.Method = "POST"
	}
	if u, err := resolve(p.URL, f.AttrOr("action", "")); err == nil {
		form.Action = u
	} else {
		form.Action = p.URL
	}
	var ctrlBuf, labelBuf [32]*htmldom.Node
	controls, labels := ctrlBuf[:0], labelBuf[:0]
	f.Walk(func(n *htmldom.Node) bool {
		switch n.Tag {
		case "input", "select", "textarea":
			controls = append(controls, n)
		case "label":
			if id, ok := n.Attr("for"); ok && id != "" {
				labels = append(labels, n)
			}
		}
		return true
	})
	if len(controls) == 0 {
		return
	}
	form.Fields = make([]Field, len(controls))
	for i, n := range controls {
		makeField(&form.Fields[i], n, labels)
	}
}

// makeField fills fld from the control n; labels are the form's <label
// for=> elements in document order.
func makeField(fld *Field, n *htmldom.Node, labels []*htmldom.Node) {
	*fld = Field{
		Node:        n,
		Tag:         n.Tag,
		Type:        strings.ToLower(n.AttrOr("type", "text")),
		Name:        n.AttrOr("name", ""),
		Value:       n.AttrOr("value", ""),
		Placeholder: n.AttrOr("placeholder", ""),
		Required:    n.HasAttr("required"),
	}
	if n.Tag == "select" {
		fld.Type = "select"
		for _, o := range n.ElementsByTag("option") {
			fld.Options = append(fld.Options, o.AttrOr("value", o.Text()))
		}
	}
	if n.Tag == "textarea" {
		fld.Type = "textarea"
		fld.Value = n.Text()
	}
	// Label discovery: explicit for= (the last such label wins), wrapping
	// label, else nearest preceding label/text in the same paragraph-ish
	// container.
	if id := n.ID(); id != "" {
		for i := len(labels) - 1; i >= 0; i-- {
			if labels[i].AttrOr("for", "") == id {
				fld.Label = labels[i].Text()
				break
			}
		}
	}
	if fld.Label == "" {
		if wrap := n.Ancestor("label"); wrap != nil {
			fld.Label = wrap.Text()
		}
	}
	if fld.Label == "" {
		fld.Label = nearestLabelText(n)
	}
}

// nearestLabelText walks backwards among siblings (and up one level) for
// visible text that likely labels the control.
func nearestLabelText(n *htmldom.Node) string {
	for cur := n; cur != nil; cur = cur.Parent {
		for sib := cur.PrevSibling(); sib != nil; sib = sib.PrevSibling() {
			switch {
			case sib.Type == htmldom.TextNode && strings.TrimSpace(sib.Data) != "":
				return strings.TrimSpace(sib.Data)
			case sib.Type == htmldom.ElementNode && sib.Tag == "label":
				return sib.Text()
			case sib.Type == htmldom.ElementNode && (sib.Tag == "input" || sib.Tag == "select" || sib.Tag == "form"):
				return "" // hit another control: no label between them
			case sib.Type == htmldom.ElementNode:
				if t := sib.Text(); t != "" {
					return t
				}
			}
		}
		if cur.Parent != nil && cur.Parent.Tag == "form" {
			break
		}
	}
	return ""
}

// Context returns all the text a heuristic can match against for this
// field: name, id, label, and placeholder, space-joined and lower-cased.
// Fields built without a parsed DOM node (synthetic fields in tests or
// callers classifying bare attribute tuples) simply contribute no id.
// The result is computed once per field: every downstream regex pass gets
// pre-lowered text without re-scanning mixed-case markup.
func (f *Field) Context() string {
	if f.ctxOK {
		return f.ctx
	}
	id := ""
	if f.Node != nil {
		id = f.Node.ID()
	}
	parts := []string{f.Name, id, f.Label, f.Placeholder}
	f.ctx = strings.ToLower(strings.Join(parts, " "))
	f.ctxOK = true
	return f.ctx
}

// Submission is a filled form ready to send.
type Submission struct {
	form   *Form
	values url.Values
	checks map[string]bool // checkbox name -> checked
}

// Fill starts a submission with the form's default values: hidden inputs,
// pre-set values, first select options. Checkboxes default to unchecked.
func (f *Form) Fill() *Submission {
	s := &Submission{form: f, values: url.Values{}, checks: make(map[string]bool)}
	for _, fld := range f.Fields {
		if fld.Name == "" {
			continue
		}
		switch fld.Type {
		case "submit", "button", "image", "reset":
			// Buttons only contribute when clicked; our submissions click
			// the default button, which most sites leave unnamed.
		case "checkbox", "radio":
			s.checks[fld.Name] = false
		case "select":
			if len(fld.Options) > 0 {
				s.values.Set(fld.Name, fld.Options[0])
			}
		default:
			s.values.Set(fld.Name, fld.Value)
		}
	}
	return s
}

// Set assigns a value to the named field.
func (s *Submission) Set(name, value string) *Submission {
	s.values.Set(name, value)
	return s
}

// Check marks the named checkbox as checked.
func (s *Submission) Check(name string) *Submission {
	s.checks[name] = true
	return s
}

// SelectLast chooses the last option of the named select (often the only
// non-empty one in short lists).
func (s *Submission) SelectLast(name string) *Submission {
	for _, fld := range s.form.Fields {
		if fld.Name == name && fld.Type == "select" && len(fld.Options) > 0 {
			s.values.Set(name, fld.Options[len(fld.Options)-1])
		}
	}
	return s
}

// Values returns the encoded form body that would be sent now.
func (s *Submission) Values() url.Values {
	v := url.Values{}
	for k, vs := range s.values {
		for _, x := range vs {
			v.Add(k, x)
		}
	}
	for name, checked := range s.checks {
		if checked {
			v.Set(name, "on")
		}
	}
	return v
}

// Submit sends the filled form through the browser session.
func (c *Client) Submit(s *Submission) (*Page, error) {
	if s.form.Action == nil {
		return nil, fmt.Errorf("browser: form has no resolvable action")
	}
	if s.form.Method == "POST" {
		return c.postURL(s.form.Action, s.Values())
	}
	u := *s.form.Action
	u.RawQuery = s.Values().Encode()
	return c.GetURL(&u)
}
