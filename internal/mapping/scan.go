package mapping

import (
	"strings"
	"unicode/utf8"
)

// This file holds the scanning mapping decoder: one pass over a document
// in the exact Figure 3 shape AppendXML writes, taking the ids as
// substrings of the document without a token stream or reflection. Like
// the XMI scanner (internal/uml/xmiscan.go) it accepts a strict subset of
// XML, chosen so that every document it accepts decodes exactly as
// encoding/xml decodes it; for anything else it reports failure and Parse
// hands the whole input to encoding/xml, which then also owns every error
// message. FuzzParseAgreesWithXML holds the two to that.
//
// The subset is: optional whitespace, <servicemapping>, then any number of
// <atomicservice id="…"> elements, each holding exactly one
// <requester id="…"></requester> followed by exactly one
// <provider id="…"></provider>, then </servicemapping> and optional
// whitespace. Whitespace (space, tab, newline) is free between tags, before
// a start tag's attribute, around its '=' and before a tag's '>'. The
// scanner does not accept: carriage returns anywhere, XML declarations and
// other processing instructions, comments, CDATA, directives, self-closing
// tags, entity and character references, attributes other than the one id
// (so no repeated id and no namespace declaration), any other element or
// any text, anything but whitespace after the root, and every kind of
// syntax error including a truncated document.

// scanner is the read position in one document.
type scanner struct {
	s   string
	pos int
}

// scanPairs appends the pairs of doc to *pairs and reports whether doc lies
// in the subset the scanner decodes. On false, *pairs holds a partial
// result and must be discarded.
func scanPairs(doc string, pairs *[]Pair) bool {
	if strings.IndexByte(doc, '\r') >= 0 {
		// encoding/xml rewrites \r\n and \r inside values; leave that to it.
		return false
	}
	sc := scanner{s: doc}
	sc.space()
	if !sc.start("servicemapping", nil) {
		return false
	}
	*pairs = make([]Pair, 0, strings.Count(doc, "<atomicservice"))
	for {
		sc.space()
		if sc.end("servicemapping") {
			break
		}
		var p Pair
		if !sc.start("atomicservice", &p.AtomicService) ||
			!sc.leaf("requester", &p.Requester) ||
			!sc.leaf("provider", &p.Provider) {
			return false
		}
		sc.space()
		if !sc.end("atomicservice") {
			return false
		}
		*pairs = append(*pairs, p)
	}
	sc.space()
	return sc.pos == len(sc.s)
}

// leaf scans an element that carries only its id: start tag, optional
// whitespace, end tag.
func (sc *scanner) leaf(name string, id *string) bool {
	sc.space()
	if !sc.start(name, id) {
		return false
	}
	sc.space()
	return sc.end(name)
}

// start scans the start tag <name> — with id non-nil, <name id="…"> and
// the value stored in *id — and reports whether it was there.
func (sc *scanner) start(name string, id *string) bool {
	if !sc.skip('<') || !sc.name(name) {
		return false
	}
	if id != nil {
		at := sc.pos
		sc.space()
		if sc.pos == at || !sc.name("id") {
			return false
		}
		sc.space()
		if !sc.skip('=') {
			return false
		}
		sc.space()
		v, ok := sc.value()
		if !ok {
			return false
		}
		*id = v
	}
	sc.space()
	return sc.skip('>')
}

// end scans the end tag </name> if it comes next; otherwise it reports
// false and leaves the position unchanged.
func (sc *scanner) end(name string) bool {
	at := sc.pos
	if sc.skip('<') && sc.skip('/') && sc.name(name) {
		sc.space()
		if sc.skip('>') {
			return true
		}
	}
	sc.pos = at
	return false
}

// name scans want if it comes next as a whole name: encoding/xml reads
// every name byte and every non-ASCII byte as part of a name, so a longer
// name does not match.
func (sc *scanner) name(want string) bool {
	if !strings.HasPrefix(sc.s[sc.pos:], want) {
		return false
	}
	if i := sc.pos + len(want); i < len(sc.s) && (isNameByte(sc.s[i]) || sc.s[i] >= utf8.RuneSelf) {
		return false
	}
	sc.pos += len(want)
	return true
}

// value scans a quoted attribute value holding only what encoding/xml
// returns verbatim: XML characters in valid UTF-8, with no '<' (an error
// there) and no '&' (a reference the fallback expands). The value is a
// substring of the document.
func (sc *scanner) value() (string, bool) {
	if sc.pos >= len(sc.s) || sc.s[sc.pos] != '"' && sc.s[sc.pos] != '\'' {
		return "", false
	}
	q := sc.s[sc.pos]
	n := strings.IndexByte(sc.s[sc.pos+1:], q)
	if n < 0 {
		return "", false
	}
	v := sc.s[sc.pos+1 : sc.pos+1+n]
	for i := 0; i < len(v); {
		c := v[i]
		if c < utf8.RuneSelf {
			if c == '<' || c == '&' || c < 0x20 && c != '\t' && c != '\n' {
				return "", false
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(v[i:])
		if r == utf8.RuneError && w == 1 || !isXMLChar(r) {
			return "", false
		}
		i += w
	}
	sc.pos += n + 2
	return v, true
}

// space skips XML whitespace (carriage returns never reach the scanner).
func (sc *scanner) space() {
	for sc.pos < len(sc.s) && (sc.s[sc.pos] == ' ' || sc.s[sc.pos] == '\t' || sc.s[sc.pos] == '\n') {
		sc.pos++
	}
}

func (sc *scanner) skip(c byte) bool {
	if sc.pos < len(sc.s) && sc.s[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

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
