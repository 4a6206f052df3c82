package uml

import (
	"encoding/xml"
	"slices"
	"strings"
	"unicode/utf8"
)

// This file holds the scanning XMI decoder: one pass over the text of the
// dialect Encode writes, filling the xmiModel structs from substrings of the
// input without a token stream or reflection. It accepts a strict subset of
// XML, chosen so that every document it accepts decodes exactly as
// encoding/xml decodes it; for anything else it reports failure and
// DecodeString hands the whole input to encoding/xml, which then also owns
// every error message. FuzzDecodeAgreesWithOracle holds the two to that.
//
// The scanner does not accept: comments, CDATA sections, DOCTYPE and other
// directives, processing instructions other than a leading XML declaration,
// carriage returns anywhere, namespace prefixes, elements or attributes the
// dialect does not define, an attribute repeated in one start tag, text
// other than whitespace outside value and property elements, numbers and
// booleans outside the forms Encode writes, characters XML forbids, and
// every kind of syntax error including a truncated document.

// scanner is the read position in one document, with one slab per kind of
// child element. A parent notes the length of each slab its children go
// to at its start tag and, at its end tag, takes its children as the
// slab's tail (children), so a document's lists share a few arrays instead
// of growing one element at a time. No element of the dialect nests inside
// an element of its own kind, so while the scanner fills an element through
// a pointer into a slab, only other slabs grow: the pointer stays valid
// whether or not the pre-count (reserve) sized the slabs right. Between a
// parent's start and end tags, only its own children append to the slabs
// its lists come from, so each list is one contiguous tail.
type scanner struct {
	s   string
	pos int

	stereotypes []xmiStereotype
	attributes  []xmiAttribute
	applies     []xmiApply
	values      []xmiValue
	properties  []xmiProperty
	instances   []xmiInstance
	links       []xmiLink
	nodes       []xmiNode
	flows       []xmiFlow
}

// scanModel fills x from s and reports whether s lies in the subset the
// scanner decodes. On false, x holds a partial result and must be reset.
func scanModel(s string, x *xmiModel) bool {
	if strings.IndexByte(s, '\r') >= 0 {
		// encoding/xml rewrites \r\n and \r inside text; leave that to it.
		return false
	}
	sc := scanner{s: s}
	if !sc.prolog() || !sc.skip('<') || sc.name() != "uml.Model" {
		return false
	}
	sc.reserve(x)
	x.XMLName = xml.Name{Local: "uml.Model"}
	// encoding/xml stops reading at the root's end tag, so whatever follows
	// it is ignored here too.
	return sc.element("uml.Model", func(k, v string) bool {
		return k == "name" && set(&x.Name, v)
	}, func(k string) bool {
		switch k {
		case "profile":
			return sc.profile(grow(&x.Profiles))
		case "class":
			return sc.class(grow(&x.Classes))
		case "association":
			return sc.association(grow(&x.Assocs))
		case "objectDiagram":
			return sc.diagram(grow(&x.Diagrams))
		case "activity":
			return sc.activity(grow(&x.Activities))
		}
		return false
	}, nil)
}

// reserve sizes x's top-level lists and the scanner's slabs from one pass
// that counts the start tags of the rest of the document by name. The
// counts set capacity only: a list or slab that turns out too small grows,
// and one too large keeps spare room. Per byte of document the slabs take
// at most about nine bytes (a "<class>" tag sizes a 64-byte xmiClass), the
// same order as the lists of an accepted document of empty elements.
func (sc *scanner) reserve(x *xmiModel) {
	var profiles, classes, assocs, diagrams, activities int
	var stereotypes, attributes, applies, values, properties, instances, links, nodes, flows int
	for s := sc.s[sc.pos:]; ; {
		i := strings.IndexByte(s, '<')
		if i < 0 {
			break
		}
		s = s[i+1:]
		n := 0
		for n < len(s) && isNameByte(s[n]) {
			n++
		}
		if n == len(s) || !isSpace(s[n]) && s[n] != '>' && s[n] != '/' {
			continue
		}
		switch s[:n] {
		case "profile":
			profiles++
		case "class":
			classes++
		case "association":
			assocs++
		case "objectDiagram":
			diagrams++
		case "activity":
			activities++
		case "stereotype":
			stereotypes++
		case "attribute":
			attributes++
		case "apply":
			applies++
		case "value":
			values++
		case "property":
			properties++
		case "instance":
			instances++
		case "link":
			links++
		case "node":
			nodes++
		case "flow":
			flows++
		}
		s = s[n:]
	}
	x.Profiles = room[xmiProfile](profiles)
	x.Classes = room[xmiClass](classes)
	x.Assocs = room[xmiAssoc](assocs)
	x.Diagrams = room[xmiDiagram](diagrams)
	x.Activities = room[xmiActivity](activities)
	sc.stereotypes = room[xmiStereotype](stereotypes)
	sc.attributes = room[xmiAttribute](attributes)
	sc.applies = room[xmiApply](applies)
	sc.values = room[xmiValue](values)
	sc.properties = room[xmiProperty](properties)
	sc.instances = room[xmiInstance](instances)
	sc.links = room[xmiLink](links)
	sc.nodes = room[xmiNode](nodes)
	sc.flows = room[xmiFlow](flows)
}

// room returns an empty slice with capacity n, or nil for n == 0: an
// element list encoding/xml finds empty stays nil.
func room[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// children returns the elements a parent appended to slab since its start
// tag, when slab's length was start: nil if there are none, else a slice
// whose full slice expression leaves it no spare capacity, so that an
// append to one parent's list can never write into the next parent's.
func children[T any](slab []T, start int) []T {
	if len(slab) == start {
		return nil
	}
	return slab[start:len(slab):len(slab)]
}

func (sc *scanner) profile(p *xmiProfile) bool {
	start := len(sc.stereotypes)
	ok := sc.element("profile", func(k, v string) bool {
		return k == "name" && set(&p.Name, v)
	}, func(k string) bool {
		return k == "stereotype" && sc.stereotype(grow(&sc.stereotypes))
	}, nil)
	p.Stereotypes = children(sc.stereotypes, start)
	return ok
}

func (sc *scanner) stereotype(st *xmiStereotype) bool {
	start := len(sc.attributes)
	ok := sc.element("stereotype", func(k, v string) bool {
		switch k {
		case "name":
			return set(&st.Name, v)
		case "extends":
			return set(&st.Extends, v)
		case "abstract":
			return scanBool(v, &st.Abstract)
		case "parent":
			return set(&st.Parent, v)
		}
		return false
	}, func(k string) bool {
		return k == "attribute" && sc.attribute(grow(&sc.attributes))
	}, nil)
	st.Attributes = children(sc.attributes, start)
	return ok
}

func (sc *scanner) attribute(a *xmiAttribute) bool {
	return sc.element("attribute", func(k, v string) bool {
		switch k {
		case "name":
			return set(&a.Name, v)
		case "type":
			return set(&a.Type, v)
		case "default":
			return set(&a.Default, v)
		case "hasDefault":
			return scanBool(v, &a.HasDef)
		}
		return false
	}, nil, nil)
}

func (sc *scanner) apply(a *xmiApply) bool {
	start := len(sc.values)
	ok := sc.element("apply", func(k, v string) bool {
		return k == "stereotype" && set(&a.Stereotype, v)
	}, func(k string) bool {
		if k != "value" {
			return false
		}
		xv := grow(&sc.values)
		return sc.element("value", func(k, v string) bool {
			return k == "attribute" && set(&xv.Attribute, v)
		}, nil, &xv.Value)
	}, nil)
	a.Values = children(sc.values, start)
	return ok
}

func (sc *scanner) class(c *xmiClass) bool {
	applies, props := len(sc.applies), len(sc.properties)
	ok := sc.element("class", func(k, v string) bool {
		return k == "name" && set(&c.Name, v)
	}, func(k string) bool {
		switch k {
		case "apply":
			return sc.apply(grow(&sc.applies))
		case "property":
			p := grow(&sc.properties)
			return sc.element("property", func(k, v string) bool {
				switch k {
				case "name":
					return set(&p.Name, v)
				case "type":
					return set(&p.Type, v)
				}
				return false
			}, nil, &p.Value)
		}
		return false
	}, nil)
	c.Applies = children(sc.applies, applies)
	c.Properties = children(sc.properties, props)
	return ok
}

func (sc *scanner) association(a *xmiAssoc) bool {
	start := len(sc.applies)
	ok := sc.element("association", func(k, v string) bool {
		switch k {
		case "name":
			return set(&a.Name, v)
		case "endA":
			return set(&a.EndA, v)
		case "endB":
			return set(&a.EndB, v)
		}
		return false
	}, func(k string) bool {
		return k == "apply" && sc.apply(grow(&sc.applies))
	}, nil)
	a.Applies = children(sc.applies, start)
	return ok
}

func (sc *scanner) diagram(d *xmiDiagram) bool {
	insts, links := len(sc.instances), len(sc.links)
	ok := sc.element("objectDiagram", func(k, v string) bool {
		return k == "name" && set(&d.Name, v)
	}, func(k string) bool {
		switch k {
		case "instance":
			i := grow(&sc.instances)
			return sc.element("instance", func(k, v string) bool {
				switch k {
				case "name":
					return set(&i.Name, v)
				case "class":
					return set(&i.Class, v)
				}
				return false
			}, nil, nil)
		case "link":
			l := grow(&sc.links)
			return sc.element("link", func(k, v string) bool {
				switch k {
				case "a":
					return set(&l.A, v)
				case "b":
					return set(&l.B, v)
				case "association":
					return set(&l.Assoc, v)
				}
				return false
			}, nil, nil)
		}
		return false
	}, nil)
	d.Instances = children(sc.instances, insts)
	d.Links = children(sc.links, links)
	return ok
}

func (sc *scanner) activity(a *xmiActivity) bool {
	nodes, flows := len(sc.nodes), len(sc.flows)
	ok := sc.element("activity", func(k, v string) bool {
		return k == "name" && set(&a.Name, v)
	}, func(k string) bool {
		switch k {
		case "node":
			n := grow(&sc.nodes)
			return sc.element("node", func(k, v string) bool {
				switch k {
				case "id":
					return scanInt(v, &n.ID)
				case "kind":
					return set(&n.Kind, v)
				case "name":
					return set(&n.Name, v)
				}
				return false
			}, nil, nil)
		case "flow":
			f := grow(&sc.flows)
			return sc.element("flow", func(k, v string) bool {
				switch k {
				case "src":
					return scanInt(v, &f.Src)
				case "dst":
					return scanInt(v, &f.Dst)
				}
				return false
			}, nil, nil)
		}
		return false
	}, nil)
	a.Nodes = children(sc.nodes, nodes)
	a.Flows = children(sc.flows, flows)
	return ok
}

// maxAttrs bounds the attributes of one start tag: no element of the
// dialect defines more, so a longer tag repeats or invents one.
const maxAttrs = 4

// element scans the rest of an element whose start-tag name has been read:
// its attributes, each passed to attr, then — unless the tag closes itself —
// its content up to the end tag of the same name. Child start tags are
// passed by name to child, which scans the child or reports it unknown.
// With text non-nil the content is character data stored in *text (and no
// child is allowed); otherwise only whitespace may separate children.
func (sc *scanner) element(name string, attr func(k, v string) bool, child func(k string) bool, text *string) bool {
	var seen [maxAttrs]string
	for n := 0; ; n++ {
		sc.space()
		if sc.pos >= len(sc.s) {
			return false
		}
		switch sc.s[sc.pos] {
		case '>':
			sc.pos++
			return sc.content(name, child, text)
		case '/':
			sc.pos++
			return sc.skip('>')
		}
		k := sc.name()
		if k == "" || n == maxAttrs || slices.Contains(seen[:n], k) {
			return false
		}
		seen[n] = k
		sc.space()
		if !sc.skip('=') {
			return false
		}
		sc.space()
		v, ok := sc.attrValue()
		if !ok || !attr(k, v) {
			return false
		}
	}
}

// content scans an element's content and its end tag.
func (sc *scanner) content(name string, child func(k string) bool, text *string) bool {
	for {
		if text != nil {
			t, ok := sc.charData('<')
			if !ok {
				return false
			}
			*text = t
		} else if !sc.blank() {
			return false
		}
		// sc.s[sc.pos] is '<'.
		if strings.HasPrefix(sc.s[sc.pos:], "</") {
			sc.pos += 2
			if !strings.HasPrefix(sc.s[sc.pos:], name) {
				return false
			}
			sc.pos += len(name)
			sc.space()
			return sc.skip('>')
		}
		sc.pos++
		if text != nil || child == nil || !child(sc.name()) {
			return false
		}
	}
}

// prolog skips an optional leading XML declaration, accepted on the same
// terms as encoding/xml (version 1.0, UTF-8), and the whitespace before the
// root element.
func (sc *scanner) prolog() bool {
	if rest, ok := strings.CutPrefix(sc.s, "<?xml"); ok {
		body := strings.TrimLeft(rest, " \t\n")
		if len(body) == len(rest) && !strings.HasPrefix(rest, "?>") {
			return false // a longer target name, such as xml-stylesheet
		}
		end := strings.Index(body, "?>")
		if end < 0 {
			return false
		}
		decl := body[:end]
		if v := declParam(decl, "version="); v != "" && v != "1.0" {
			return false
		}
		if e := declParam(decl, "encoding="); e != "" && !strings.EqualFold(e, "utf-8") {
			return false
		}
		sc.pos = len(sc.s) - len(body) + end + len("?>")
	}
	sc.space()
	return true
}

// declParam returns the quoted value after the first occurrence of param
// (which ends in '=') that is followed by a quote, as encoding/xml reads
// the pseudo-attributes of an XML declaration; "" if there is none.
func declParam(decl, param string) string {
	for {
		_, after, ok := strings.Cut(decl, param)
		if !ok || after == "" {
			return ""
		}
		if q := after[0]; q == '"' || q == '\'' {
			v, _, ok := strings.Cut(after[1:], after[:1])
			if !ok {
				return ""
			}
			return v
		}
		decl = after[1:]
	}
}

// space skips XML whitespace (carriage returns never reach the scanner).
func (sc *scanner) space() {
	for sc.pos < len(sc.s) && isSpace(sc.s[sc.pos]) {
		sc.pos++
	}
}

// blank skips whitespace content and reports whether a tag follows.
func (sc *scanner) blank() bool {
	sc.space()
	return sc.pos < len(sc.s) && sc.s[sc.pos] == '<'
}

func (sc *scanner) skip(c byte) bool {
	if sc.pos < len(sc.s) && sc.s[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// name scans an element or attribute name as encoding/xml delimits it:
// every non-ASCII byte continues a name. Callers match it against the
// dialect's names, which are all valid XML names.
func (sc *scanner) name() string {
	i := sc.pos
	for i < len(sc.s) && (isNameByte(sc.s[i]) || sc.s[i] >= utf8.RuneSelf) {
		i++
	}
	n := sc.s[sc.pos:i]
	sc.pos = i
	return n
}

// attrValue scans a quoted attribute value.
func (sc *scanner) attrValue() (string, bool) {
	if sc.pos >= len(sc.s) || sc.s[sc.pos] != '"' && sc.s[sc.pos] != '\'' {
		return "", false
	}
	q := sc.s[sc.pos]
	sc.pos++
	v, ok := sc.charData(q)
	return v, ok && sc.skip(q)
}

// charData scans text up to the next stop byte ('<' for content, the quote
// for an attribute value), applying encoding/xml's checks on text: no '<'
// in a value, no "]]>" in content, only XML characters in valid UTF-8, and
// only the predefined entities and character references, which it expands.
// Without references the result is a substring of the input.
func (sc *scanner) charData(stop byte) (string, bool) {
	s := sc.s
	refs := false
	for i := sc.pos; i < len(s); {
		c := s[i]
		switch {
		case c == stop:
			raw := s[sc.pos:i]
			sc.pos = i
			if refs {
				raw = unescape(raw)
			}
			return raw, true
		case c == '<':
			return "", false
		case c == '&':
			_, n := reference(s[i:])
			if n == 0 {
				return "", false
			}
			refs = true
			i += n
		case c == '>' && stop == '<' && i-2 >= sc.pos && s[i-2] == ']' && s[i-1] == ']':
			return "", false
		case c < utf8.RuneSelf:
			if c < 0x20 && c != '\t' && c != '\n' {
				return "", false
			}
			i++
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 || !isXMLChar(r) {
				return "", false
			}
			i += n
		}
	}
	return "", false
}

// entities are the references XML predefines.
var entities = [...]struct {
	ref string
	ch  rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// reference decodes the entity or character reference at the start of s
// (which begins with '&'), returning the character and the reference's
// length, or length 0 for a reference the scanner does not accept.
func reference(s string) (rune, int) {
	for _, e := range entities {
		if strings.HasPrefix(s, e.ref) {
			return e.ch, len(e.ref)
		}
	}
	if len(s) < 2 || s[1] != '#' {
		return 0, 0
	}
	i, base := 2, 10
	if i < len(s) && s[i] == 'x' {
		i, base = 3, 16
	}
	start, n := i, 0
	// Eight digits cover every character; longer references fall back.
	for ; i < len(s) && i-start < 8; i++ {
		d := digitValue(s[i])
		if d >= base {
			break
		}
		n = n*base + d
	}
	if i == start || i >= len(s) || s[i] != ';' || n > utf8.MaxRune || !isXMLChar(rune(n)) {
		return 0, 0
	}
	return rune(n), i + 1
}

// unescape expands the references in raw, which charData has checked.
func unescape(raw string) string {
	var b strings.Builder
	b.Grow(len(raw))
	for {
		i := strings.IndexByte(raw, '&')
		if i < 0 {
			b.WriteString(raw)
			return b.String()
		}
		b.WriteString(raw[:i])
		r, n := reference(raw[i:])
		b.WriteRune(r)
		raw = raw[i+n:]
	}
}

// digitValue returns the value of a hexadecimal digit, or 16 for any other
// byte.
func digitValue(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return 16
}

// scanInt parses an integer attribute in the form Encode writes: an
// optional minus sign and up to 18 decimal digits, so it cannot overflow.
func scanInt(v string, dst *int) bool {
	digits := strings.TrimPrefix(v, "-")
	if digits == "" || len(digits) > 18 {
		return false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return false
		}
		n = n*10 + int(c-'0')
	}
	if len(digits) < len(v) {
		n = -n
	}
	*dst = n
	return true
}

// scanBool parses a boolean attribute in the form Encode writes.
func scanBool(v string, dst *bool) bool {
	switch v {
	case "true":
		*dst = true
	case "false":
		*dst = false
	default:
		return false
	}
	return true
}

func set(dst *string, v string) bool {
	*dst = v
	return true
}

// grow appends a zero element to *s and returns a pointer to it.
func grow[T any](s *[]T) *T {
	var zero T
	*s = append(*s, zero)
	return &(*s)[len(*s)-1]
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' }

// isNameByte reports the ASCII bytes encoding/xml reads as part of a name.
func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// isXMLChar reports whether r is in the XML character range.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// detach copies the strings the built model keeps into one new backing
// string, so that the model holds its names and values but not the
// document they were scanned from (a pooled model would otherwise pin a
// whole request body, padding included).
func (x *xmiModel) detach() {
	n := 0
	x.retainedStrings(func(p *string) { n += len(*p) })
	var b strings.Builder
	b.Grow(n)
	x.retainedStrings(func(p *string) { b.WriteString(*p) })
	backing := b.String()
	x.retainedStrings(func(p *string) {
		*p, backing = backing[:len(*p)], backing[len(*p):]
	})
}

// retainedStrings calls fn, in a fixed order, on every string field of x
// that build stores in the model: names, attribute defaults and values.
// The other fields — types, metaclasses, node kinds and references to
// elements by name — are only parsed or looked up while building, so they
// may keep pointing into the document. TestDecodeDetachesStrings walks
// the built model to hold this split to the build code.
func (x *xmiModel) retainedStrings(fn func(*string)) {
	fn(&x.Name)
	for i := range x.Profiles {
		p := &x.Profiles[i]
		fn(&p.Name)
		for j := range p.Stereotypes {
			st := &p.Stereotypes[j]
			fn(&st.Name)
			for k := range st.Attributes {
				fn(&st.Attributes[k].Name)
				fn(&st.Attributes[k].Default)
			}
		}
	}
	applies := func(as []xmiApply) {
		for i := range as {
			for j := range as[i].Values {
				fn(&as[i].Values[j].Attribute)
				fn(&as[i].Values[j].Value)
			}
		}
	}
	for i := range x.Classes {
		c := &x.Classes[i]
		fn(&c.Name)
		applies(c.Applies)
		for j := range c.Properties {
			fn(&c.Properties[j].Name)
			fn(&c.Properties[j].Value)
		}
	}
	for i := range x.Assocs {
		fn(&x.Assocs[i].Name)
		applies(x.Assocs[i].Applies)
	}
	for i := range x.Diagrams {
		d := &x.Diagrams[i]
		fn(&d.Name)
		for j := range d.Instances {
			fn(&d.Instances[j].Name)
		}
	}
	for i := range x.Activities {
		a := &x.Activities[i]
		fn(&a.Name)
		for j := range a.Nodes {
			fn(&a.Nodes[j].Name)
		}
	}
}
