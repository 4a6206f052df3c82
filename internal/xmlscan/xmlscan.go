// Package xmlscan is the lexer of upsim's two scanning XML decoders: the
// XMI model (internal/uml) and the Figure 3 service mapping
// (internal/mapping). Each decoder reads one pass over its document,
// taking names and values as substrings of it without a token stream or
// reflection, and accepts a strict subset of XML, chosen so that every
// document it accepts decodes exactly as encoding/xml decodes it; for
// anything else it reports failure and the caller hands the whole input to
// encoding/xml, which then also owns every error message.
//
// The subset both decoders share is: an optional leading XML declaration
// of version 1.0 in UTF-8 and whitespace before the root; elements whose
// names the decoder knows, without namespace prefixes; each attribute at
// most once, quoted with either quote; self-closing tags; whitespace
// between tags, before an attribute, around its '=' and before a tag's
// '>'; character data, in the elements a decoder reads text from, and
// attribute values holding only XML characters in valid UTF-8, with the
// five predefined entities and character references of up to eight
// digits, which it expands. Like encoding/xml's Decoder, a scan stops at
// the root's end tag and ignores what follows. It does not accept:
// carriage returns anywhere, comments, CDATA sections, DOCTYPE and other
// directives, processing instructions other than the declaration, text
// other than whitespace between child elements, and every kind of syntax
// error including a truncated document.
package xmlscan

import (
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// Scanner is the read position in one document.
type Scanner struct {
	s   string
	pos int
}

// Root starts a scan of doc: it skips the prolog and reads the root's
// start-tag name, which it returns. It returns "" when doc holds a
// carriage return or its prolog lies outside the subset.
func (sc *Scanner) Root(doc string) string {
	if strings.IndexByte(doc, '\r') >= 0 {
		// encoding/xml rewrites \r\n and \r inside text; leave that to it.
		return ""
	}
	*sc = Scanner{s: doc}
	if !sc.prolog() || !sc.skip('<') {
		return ""
	}
	return sc.name()
}

// StartTags calls fn with the name of every start tag after the read
// position, found by a byte search that checks no further syntax: a count
// for sizing what the scan will fill, not a parse.
func (sc *Scanner) StartTags(fn func(name string)) {
	for s := sc.s[sc.pos:]; ; {
		i := strings.IndexByte(s, '<')
		if i < 0 {
			return
		}
		s = s[i+1:]
		n := 0
		for n < len(s) && isNameByte(s[n]) {
			n++
		}
		if n < len(s) && (isSpace(s[n]) || s[n] == '>' || s[n] == '/') {
			fn(s[:n])
		}
		s = s[n:]
	}
}

// maxAttrs bounds the attributes of one start tag: no element of either
// dialect defines more, so a longer tag repeats or invents one.
const maxAttrs = 4

// Element scans the rest of an element whose start-tag name has been read:
// its attributes, each passed to attr (nil: the element takes none), then
// — unless the tag closes itself — its content up to the end tag of the
// same name. Child start tags are passed by name to child, which scans the
// child with Element or reports it unknown. With text non-nil the content
// is character data stored in *text (and no child is allowed); otherwise
// only whitespace may separate children.
func (sc *Scanner) Element(name string, attr func(k, v string) bool, child func(k string) bool, text *string) bool {
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
		if k == "" || attr == nil || n == maxAttrs || slices.Contains(seen[:n], k) {
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
func (sc *Scanner) content(name string, child func(k string) bool, text *string) bool {
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
func (sc *Scanner) prolog() bool {
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
func (sc *Scanner) space() {
	for sc.pos < len(sc.s) && isSpace(sc.s[sc.pos]) {
		sc.pos++
	}
}

// blank skips whitespace content and reports whether a tag follows.
func (sc *Scanner) blank() bool {
	sc.space()
	return sc.pos < len(sc.s) && sc.s[sc.pos] == '<'
}

func (sc *Scanner) skip(c byte) bool {
	if sc.pos < len(sc.s) && sc.s[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// name scans an element or attribute name as encoding/xml delimits it:
// every non-ASCII byte continues a name. Callers match it against their
// dialect's names, which are all valid XML names.
func (sc *Scanner) name() string {
	i := sc.pos
	for i < len(sc.s) && (isNameByte(sc.s[i]) || sc.s[i] >= utf8.RuneSelf) {
		i++
	}
	n := sc.s[sc.pos:i]
	sc.pos = i
	return n
}

// attrValue scans a quoted attribute value.
func (sc *Scanner) attrValue() (string, bool) {
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
func (sc *Scanner) charData(stop byte) (string, bool) {
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
			if r == utf8.RuneError && n == 1 || !IsXMLChar(r) {
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
	if i == start || i >= len(s) || s[i] != ';' || n > utf8.MaxRune || !IsXMLChar(rune(n)) {
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

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' }

// isNameByte reports the ASCII bytes encoding/xml reads as part of a name.
func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// IsXMLChar reports whether r is in the XML character range.
func IsXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// ReadString reads r to its end into one string, sized up front when r
// reports its length (strings.Reader, bytes.Reader, bytes.Buffer). On a
// read error it returns what r delivered before it.
func ReadString(r io.Reader) (string, error) {
	var b strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		b.Grow(l.Len())
	}
	_, err := io.Copy(&b, r)
	return b.String(), err
}
