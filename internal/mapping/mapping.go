// Package mapping implements the service mapping of the UPSIM methodology
// (Section V-A3): the association of every atomic service with a service
// mapping pair — the (requester, provider) ICT components that bound the
// part of the infrastructure the atomic service uses. The XML wire format
// follows the paper's Figure 3:
//
//	<atomicservice id="atomic_service_1">
//	    <requester id="component_a"></requester>
//	    <provider id="component_b"></provider>
//	</atomicservice>
//
// wrapped in a single <servicemapping> root element so that a file can carry
// the pairs of several services ("Additional service mapping pairs could be
// listed in the mapping file to support other services", Section VI-D).
//
// The mapping is the only model that must change when the user perspective
// changes, which is the paper's key lever for dynamic environments;
// RemapComponent implements the mobility and migration scenarios of Section
// V-A3.
package mapping

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"upsim/internal/obs"
)

// Pair is one service mapping pair: an atomic service bound to the
// requester and provider ICT components (instance names in the
// infrastructure object diagram).
type Pair struct {
	AtomicService string
	Requester     string
	Provider      string
}

// Validate checks that all three identifiers are present (names consisting
// only of whitespace count as missing) and the pair does not map a service
// onto a single component.
func (p Pair) Validate() error {
	if strings.TrimSpace(p.AtomicService) == "" {
		return fmt.Errorf("mapping: pair without atomic service id")
	}
	if strings.TrimSpace(p.Requester) == "" {
		return fmt.Errorf("mapping: pair %q without requester id", p.AtomicService)
	}
	if strings.TrimSpace(p.Provider) == "" {
		return fmt.Errorf("mapping: pair %q without provider id", p.AtomicService)
	}
	if p.Requester == p.Provider {
		return fmt.Errorf("mapping: pair %q maps requester and provider to the same component %q",
			p.AtomicService, p.Requester)
	}
	return nil
}

// String renders the pair as a Table-I style row.
func (p Pair) String() string {
	return fmt.Sprintf("%s: %s -> %s", p.AtomicService, p.Requester, p.Provider)
}

// Mapping is an ordered set of pairs keyed by atomic service name. The
// atomic service is the unique key (Section VI-D: "the service mapping
// should contain at least five pairs with their atomic service as unique
// key").
type Mapping struct {
	pairs []Pair
	index map[string]int
}

// New creates an empty mapping.
func New() *Mapping {
	return &Mapping{index: make(map[string]int)}
}

// Add inserts a pair. Re-adding an atomic service is an error; use
// RemapComponent to change the components of existing pairs.
func (m *Mapping) Add(p Pair) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, dup := m.index[p.AtomicService]; dup {
		return fmt.Errorf("mapping: duplicate atomic service %q", p.AtomicService)
	}
	m.index[p.AtomicService] = len(m.pairs)
	m.pairs = append(m.pairs, p)
	return nil
}

// Pair looks up the pair for an atomic service.
func (m *Mapping) Pair(atomicService string) (Pair, bool) {
	i, ok := m.index[atomicService]
	if !ok {
		return Pair{}, false
	}
	return m.pairs[i], true
}

// Pairs returns all pairs in insertion order.
func (m *Mapping) Pairs() []Pair {
	out := make([]Pair, len(m.pairs))
	copy(out, m.pairs)
	return out
}

// Len returns the number of pairs.
func (m *Mapping) Len() int { return len(m.pairs) }

// RemapComponent substitutes every occurrence of the component old (as
// requester or provider) by new, returning the number of pairs changed.
// This implements the mobility scenario (a user moves to a different client)
// and the migration scenario (a service moves to a different provider) in
// one primitive.
func (m *Mapping) RemapComponent(old, new string) (int, error) {
	if old == "" || new == "" {
		return 0, fmt.Errorf("mapping: empty component name in remap")
	}
	changed := 0
	for i, p := range m.pairs {
		touched := false
		if p.Requester == old {
			p.Requester = new
			touched = true
		}
		if p.Provider == old {
			p.Provider = new
			touched = true
		}
		if !touched {
			continue
		}
		if err := p.Validate(); err != nil {
			return changed, err
		}
		m.pairs[i] = p
		changed++
	}
	return changed, nil
}

// Clone returns a deep copy, used to derive per-perspective mappings without
// mutating the base.
func (m *Mapping) Clone() *Mapping {
	c := New()
	for _, p := range m.pairs {
		_ = c.Add(p)
	}
	return c
}

// --- XML wire format (Figure 3) ---

// Decode metrics: which parser served each mapping (Parse).
var (
	mDecode = obs.NewCounter("upsim_mapping_decode_total",
		"Service mappings decoded, by parser: the scanner or the encoding/xml fallback.", "path")
	mDecodeScan   = mDecode.With("scan")
	mDecodeStdlib = mDecode.With("stdlib")
)

type xmlMapping struct {
	XMLName xml.Name     `xml:"servicemapping"`
	Pairs   []xmlService `xml:"atomicservice"`
}

type xmlService struct {
	ID        string `xml:"id,attr"`
	Requester xmlRef `xml:"requester"`
	Provider  xmlRef `xml:"provider"`
}

type xmlRef struct {
	ID string `xml:"id,attr"`
}

// Encode writes the mapping as indented XML in the Figure 3 dialect: the
// bytes AppendXML appends.
func (m *Mapping) Encode(w io.Writer) error {
	if _, err := w.Write(m.AppendXML(nil)); err != nil {
		return fmt.Errorf("mapping: encode: %w", err)
	}
	return nil
}

// AppendXML appends the mapping's Figure 3 encoding to b and returns the
// extended buffer. The bytes are those encoding/xml's Encoder writes for
// the dialect with a two-space indent, the escaping of attribute values
// included; FuzzEncodeAgreesWithXML holds the two equal. The generation
// cache key hashes this text, so it must not change.
//
//upsim:hotpath once per cache-key derivation
func (m *Mapping) AppendXML(b []byte) []byte {
	if len(m.pairs) == 0 {
		return append(b, "<servicemapping></servicemapping>"...)
	}
	b = append(b, "<servicemapping>"...)
	for _, p := range m.pairs {
		b = append(b, "\n  <atomicservice id=\""...)
		b = appendAttr(b, p.AtomicService)
		b = append(b, "\">\n    <requester id=\""...)
		b = appendAttr(b, p.Requester)
		b = append(b, "\"></requester>\n    <provider id=\""...)
		b = appendAttr(b, p.Provider)
		b = append(b, "\"></provider>\n  </atomicservice>"...)
	}
	return append(b, "\n</servicemapping>"...)
}

// appendAttr appends s escaped as encoding/xml escapes an attribute value:
// the five markup characters and tab, newline and carriage return become
// character references, and invalid UTF-8 and characters outside XML's
// range become U+FFFD.
func appendAttr(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if isXMLChar(r) && (r != utf8.RuneError || width > 1) {
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, s[last:i-width]...)
		b = append(b, esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// Parse reads a mapping from the Figure 3 XML dialect. Every pair is
// validated at import time: empty or whitespace-only atomic service,
// requester and provider ids and duplicate atomic-service entries are
// rejected with an error naming the offending pair's position in the file.
//
// Parse reads r to its end. A document in the dialect AppendXML writes
// (whitespace between tags is free) is scanned in one pass (scan.go); any
// other input is decoded by encoding/xml, which then also owns every
// syntax error. Both paths yield the same pairs and the same errors.
func Parse(r io.Reader) (*Mapping, error) {
	doc, readErr := readAll(r)
	var pairs []Pair
	if ok := readErr == nil && scanPairs(doc, &pairs); ok {
		mDecodeScan.Inc()
	} else {
		mDecodeStdlib.Inc()
		src := io.Reader(strings.NewReader(doc))
		if readErr != nil {
			// encoding/xml sees the bytes r delivered, then r's error,
			// exactly as if it had read r itself.
			src = io.MultiReader(src, errReader{readErr})
		}
		var err error
		if pairs, err = decodeStdlib(src); err != nil {
			return nil, err
		}
	}
	// The mapping keeps the parsed slice: Add writes pair i back to index
	// i or lower, after the loop has read it.
	m := &Mapping{pairs: pairs[:0], index: make(map[string]int, len(pairs))}
	for i, p := range pairs {
		if err := m.Add(p); err != nil {
			return nil, fmt.Errorf("mapping: parse: <atomicservice> element %d of %d: %w",
				i+1, len(pairs), err)
		}
	}
	return m, nil
}

// decodeStdlib parses a document with encoding/xml: the fallback for input
// the scanner does not accept, and the oracle its tests compare against.
func decodeStdlib(r io.Reader) ([]Pair, error) {
	var x xmlMapping
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, fmt.Errorf("mapping: parse: %w", err)
	}
	pairs := make([]Pair, len(x.Pairs))
	for i, s := range x.Pairs {
		pairs[i] = Pair{AtomicService: s.ID, Requester: s.Requester.ID, Provider: s.Provider.ID}
	}
	return pairs, nil
}

// readAll reads r to its end into one string, sized up front when r
// reports its length (strings.Reader, bytes.Reader, bytes.Buffer).
func readAll(r io.Reader) (string, error) {
	var b strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		b.Grow(l.Len())
	}
	_, err := io.Copy(&b, r)
	return b.String(), err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
