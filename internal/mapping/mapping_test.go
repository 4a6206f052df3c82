package mapping

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"upsim/internal/testutil"
)

// tableI builds the paper's Table I mapping for the printing service from
// client t1 to printer p2 through server printS.
func tableI(t testing.TB) *Mapping {
	t.Helper()
	m := New()
	pairs := []Pair{
		{"Request printing", "t1", "printS"},
		{"Login to printer", "p2", "printS"},
		{"Send document list", "printS", "p2"},
		{"Select documents", "p2", "printS"},
		{"Send documents", "printS", "p2"},
	}
	for _, p := range pairs {
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestMappingBasics(t *testing.T) {
	m := tableI(t)
	if m.Len() != 5 {
		t.Fatalf("Len = %d", m.Len())
	}
	p, ok := m.Pair("Request printing")
	if !ok || p.Requester != "t1" || p.Provider != "printS" {
		t.Errorf("Pair = %+v, %v", p, ok)
	}
	if _, ok := m.Pair("ghost"); ok {
		t.Error("unknown atomic service should be absent")
	}
	got := m.Pairs()
	if len(got) != 5 || got[0].AtomicService != "Request printing" || got[4].AtomicService != "Send documents" {
		t.Errorf("Pairs order = %v", got)
	}
	if s := p.String(); !strings.Contains(s, "t1 -> printS") {
		t.Errorf("Pair.String = %q", s)
	}
}

func TestMappingAddErrors(t *testing.T) {
	m := tableI(t)
	cases := []Pair{
		{"", "a", "b"},
		{"x", "", "b"},
		{"x", "a", ""},
		{"x", "a", "a"},
		{"Request printing", "a", "b"}, // duplicate key
	}
	for _, p := range cases {
		if err := m.Add(p); err == nil {
			t.Errorf("Add(%+v) should fail", p)
		}
	}
	if m.Len() != 5 {
		t.Error("failed adds must not modify the mapping")
	}
}

func TestRemapComponent(t *testing.T) {
	m := tableI(t)
	// Printer p2 replaced by p3 everywhere (mobility of the physical
	// endpoint): touches 4 of 5 pairs.
	n, err := m.RemapComponent("p2", "p3")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("changed = %d, want 4", n)
	}
	for _, p := range m.Pairs() {
		if p.Requester == "p2" || p.Provider == "p2" {
			t.Errorf("p2 still present: %+v", p)
		}
	}
	if _, err := m.RemapComponent("", "x"); err == nil {
		t.Error("empty old name should fail")
	}
	if _, err := m.RemapComponent("x", ""); err == nil {
		t.Error("empty new name should fail")
	}
	// Remapping provider onto the requester of the same pair must fail
	// validation.
	m2 := New()
	_ = m2.Add(Pair{"s", "a", "b"})
	if _, err := m2.RemapComponent("b", "a"); err == nil {
		t.Error("remap creating identical pair should fail")
	}
}

func TestClone(t *testing.T) {
	m := tableI(t)
	c := m.Clone()
	if _, err := c.RemapComponent("t1", "t15"); err != nil {
		t.Fatal(err)
	}
	orig, _ := m.Pair("Request printing")
	if orig.Requester != "t1" {
		t.Error("clone mutation leaked into the original")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	m := tableI(t)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != m.Len() {
		t.Fatalf("round trip Len = %d", got.Len())
	}
	for _, want := range m.Pairs() {
		p, ok := got.Pair(want.AtomicService)
		if !ok || p != want {
			t.Errorf("round trip pair %q = %+v", want.AtomicService, p)
		}
	}
}

func TestParseFigure3Dialect(t *testing.T) {
	// The exact element shapes of Figure 3.
	src := `<servicemapping>
  <atomicservice id="atomic_service_1">
    <requester id="component_a"></requester>
    <provider id="component_b"></provider>
  </atomicservice>
</servicemapping>`
	m, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := m.Pair("atomic_service_1")
	if !ok || p.Requester != "component_a" || p.Provider != "component_b" {
		t.Errorf("parsed pair = %+v, %v", p, ok)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"malformed", `<servicemapping><atomicservice`},
		{"missing requester", `<servicemapping><atomicservice id="s"><provider id="b"/></atomicservice></servicemapping>`},
		{"missing provider", `<servicemapping><atomicservice id="s"><requester id="a"/></atomicservice></servicemapping>`},
		{"missing id", `<servicemapping><atomicservice><requester id="a"/><provider id="b"/></atomicservice></servicemapping>`},
		{"identical pair", `<servicemapping><atomicservice id="s"><requester id="a"/><provider id="a"/></atomicservice></servicemapping>`},
		{"duplicate service", `<servicemapping><atomicservice id="s"><requester id="a"/><provider id="b"/></atomicservice><atomicservice id="s"><requester id="c"/><provider id="d"/></atomicservice></servicemapping>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(c.src)); err == nil {
				t.Errorf("Parse should fail for %s", c.name)
			}
		})
	}
}

// Property: any mapping built from valid distinct pairs survives an XML
// round trip unchanged.
func TestXMLRoundTripProperty(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	comps := []string{"c1", "c2", "c3", "c4", "c5"}
	f := func(reqs, provs [4]uint8) bool {
		m := New()
		for i, n := range names {
			req := comps[int(reqs[i])%len(comps)]
			prov := comps[int(provs[i])%len(comps)]
			if req == prov {
				prov = comps[(int(provs[i])+1)%len(comps)]
			}
			if err := m.Add(Pair{n, req, prov}); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil || got.Len() != m.Len() {
			return false
		}
		for _, want := range m.Pairs() {
			p, ok := got.Pair(want.AtomicService)
			if !ok || p != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Whitespace-only identifiers are as useless as empty ones; Validate trims
// before judging so "  " cannot sneak a blank name into the pipeline.
func TestValidateRejectsWhitespaceNames(t *testing.T) {
	cases := []struct {
		p    Pair
		want string
	}{
		{Pair{"  ", "a", "b"}, "without atomic service id"},
		{Pair{"s", " \t", "b"}, "without requester id"},
		{Pair{"s", "a", "\n"}, "without provider id"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) should fail", c.p)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want substring %q", c.p, err, c.want)
		}
	}
}

// Parse errors name the offending <atomicservice> element by position so a
// defect in a long hand-written mapping file is findable.
func TestParseErrorIsPositional(t *testing.T) {
	src := `<servicemapping>
  <atomicservice id="ok"><requester id="a"/><provider id="b"/></atomicservice>
  <atomicservice id="bad"><requester id="  "/><provider id="b"/></atomicservice>
</servicemapping>`
	_, err := Parse(strings.NewReader(src))
	if err == nil {
		t.Fatal("Parse accepted a whitespace requester")
	}
	for _, want := range []string{"element 2 of 2", "requester"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// FuzzMappingParse: Parse never panics on untrusted input, and every
// mapping it accepts survives an Encode/Parse round trip unchanged.
func FuzzMappingParse(f *testing.F) {
	var buf bytes.Buffer
	if err := tableI(f).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, s := range []string{
		`<servicemapping><atomicservice id="s"><requester id="a"></requester><provider id="b"></provider></atomicservice></servicemapping>`,
		`<servicemapping><atomicservice id='s &amp; t'><requester id="&#x41;"/><provider id=" b "/></atomicservice></servicemapping>`,
		`<?xml version="1.0"?><servicemapping><!-- c --><atomicservice id="s"><requester id="a"/><provider id="a"/></atomicservice></servicemapping>`,
		`<servicemapping><atomicservice`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		m, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := m.Encode(&b); err != nil {
			t.Fatalf("Encode of a parsed mapping: %v", err)
		}
		again, err := Parse(&b)
		if err != nil {
			t.Fatalf("re-Parse: %v\n%s", err, b.String())
		}
		if !slices.Equal(again.Pairs(), m.Pairs()) {
			t.Fatalf("round trip changed the pairs: %v -> %v", m.Pairs(), again.Pairs())
		}
	})
}

// encodeStdlib is the encoding/xml writer Encode replaced: the oracle
// FuzzEncodeAgreesWithXML holds AppendXML to.
func encodeStdlib(t testing.TB, m *Mapping) string {
	t.Helper()
	x := xmlMapping{}
	for _, p := range m.pairs {
		x.Pairs = append(x.Pairs, xmlService{
			ID:        p.AtomicService,
			Requester: xmlRef{ID: p.Requester},
			Provider:  xmlRef{ID: p.Provider},
		})
	}
	var b strings.Builder
	enc := xml.NewEncoder(&b)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// parseStdlib is Parse as it was before the scanner: encoding/xml reading
// r, then the shared pair validation.
func parseStdlib(r io.Reader) ([]Pair, error) {
	pairs, err := decodeStdlib(r)
	if err != nil {
		return nil, err
	}
	m := New()
	for i, p := range pairs {
		if err := m.Add(p); err != nil {
			return nil, fmt.Errorf("mapping: parse: <atomicservice> element %d of %d: %w",
				i+1, len(pairs), err)
		}
	}
	return m.Pairs(), nil
}

var errBoom = errors.New("boom")

// cutReader delivers doc[:cut] and then fails with errBoom; a cut outside
// the document delivers it whole.
func cutReader(doc string, cut int) io.Reader {
	if cut < 0 || cut >= len(doc) {
		return strings.NewReader(doc)
	}
	return io.MultiReader(strings.NewReader(doc[:cut]), iotest.ErrReader(errBoom))
}

// FuzzParseAgreesWithXML: Parse gives the same pairs or the same error
// text as encoding/xml reading the same bytes, and whenever the scanner
// accepts a document, encoding/xml parses it into the same pairs.
func FuzzParseAgreesWithXML(f *testing.F) {
	var buf bytes.Buffer
	if err := tableI(f).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	enc := buf.String()
	f.Add(enc, -1)
	for _, s := range []string{
		strings.ReplaceAll(enc, "\n", "\r\n"), // CRLF
		`<servicemapping><atomicservice id="s &amp; t"><requester id="&#x41;"></requester><provider id="b"></provider></atomicservice></servicemapping>`,
		`<servicemapping><atomicservice id="s"><requester id="a"/><provider id="b"/></atomicservice></servicemapping>`,
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + enc,
		`<servicemapping><!-- c --><atomicservice id="s"><requester id="a"></requester><provider id="b"></provider></atomicservice></servicemapping>`,
		enc + "\n<trailing/>",
		enc + "trailing text",
		`<servicemapping><atomicservice id="s" id="t"><requester id="a"></requester><provider id="b"></provider></atomicservice></servicemapping>`,
		`<servicemapping><atomicservice id="Dienst ü"><requester id="客户"></requester><provider id="b"></provider></atomicservice></servicemapping>`,
		"<servicemapping><atomicservice id=\"s\xff\"><requester id=\"a\"></requester><provider id=\"b\"></provider></atomicservice></servicemapping>",
		`<servicemapping></servicemapping>`,
		"  <servicemapping >\n\t<atomicservice\n id = 's' >\n<requester id='a' >\n</requester >\n<provider id=\"b\"></provider></atomicservice></servicemapping>\n",
		`<servicemapping><atomicservice id="s"><requester id="a"></requester><provider id="a"></provider></atomicservice></servicemapping>`,
		`<servicemapping><atomicservice id=" "><requester id="a"></requester><provider id="b"></provider></atomicservice></servicemapping>`,
		`<servicemapping><atomicservice id="s"><provider id="b"></provider><requester id="a"></requester></atomicservice></servicemapping>`,
		`<servicemapping xmlns="urn:x"><atomicservice id="s"><requester id="a"></requester><provider id="b"></provider></atomicservice></servicemapping>`,
		`<mapping></mapping>`,
		`<servicemapping><atomicservice`,
		"<servicemapping><atomicservice id=\"a\tb\nc\"><requester id=\"x>y\"></requester><provider id=\"b\"></provider></atomicservice></servicemapping>",
		"<servicemapping><atomicservice id=\"\x01\"><requester id=\"a\"></requester><provider id=\"b\"></provider></atomicservice></servicemapping>",
		"<servicemapping><atomicservice id=\"\uFFFE\"><requester id=\"a\"></requester><provider id=\"b\"></provider></atomicservice></servicemapping>",
	} {
		f.Add(s, -1)
	}
	f.Add(enc, len(enc)/2) // a reader that fails mid-document
	f.Add(enc, len(enc)-1)
	f.Fuzz(func(t *testing.T, doc string, cut int) {
		want, wantErr := parseStdlib(cutReader(doc, cut))
		m, err := Parse(cutReader(doc, cut))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("Parse error %v, encoding/xml error %v", err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("error text differs:\n scan: %v\n  xml: %v", err, wantErr)
			}
		case !slices.Equal(m.Pairs(), want):
			t.Fatalf("pairs differ:\n scan: %v\n  xml: %v", m.Pairs(), want)
		}
		var pairs []Pair
		if scanPairs(doc, &pairs) {
			xp, err := decodeStdlib(strings.NewReader(doc))
			if err != nil || !slices.Equal(pairs, xp) {
				t.Fatalf("scanner accepted %q as %v; encoding/xml: %v, %v", doc, pairs, xp, err)
			}
		}
	})
}

// FuzzEncodeAgreesWithXML: AppendXML writes the bytes encoding/xml's
// Encoder writes, for any ids (Encode never validates them).
func FuzzEncodeAgreesWithXML(f *testing.F) {
	f.Add("Request printing", "t1", "printS", uint8(1))
	f.Add(`a"b'c&d<e>f`, "tab\there", "nl\ncr\r", uint8(2))
	f.Add("\xff\xfe", " \uFFFE\x00", "ok\uFFFD", uint8(3))
	f.Add("", "", "", uint8(0))
	f.Fuzz(func(t *testing.T, s, r, p string, n uint8) {
		m := New()
		for i := 0; i < int(n%4); i++ {
			m.pairs = append(m.pairs, Pair{s, r, p})
			s, r, p = r, p, s
		}
		if got, want := string(m.AppendXML(nil)), encodeStdlib(t, m); got != want {
			t.Fatalf("AppendXML:\n%s\nencoding/xml:\n%s", got, want)
		}
	})
}

// TestParseCountsParser: Table I as Encode writes it takes the scan path,
// and the same document with CRLF line ends takes encoding/xml.
func TestParseCountsParser(t *testing.T) {
	var buf bytes.Buffer
	if err := tableI(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	scan, stdlib := mDecodeScan.Value(), mDecodeStdlib.Value()
	if _, err := Parse(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if mDecodeScan.Value() != scan+1 || mDecodeStdlib.Value() != stdlib {
		t.Errorf("Table I: scan %d→%d, stdlib %d→%d; want the scanner",
			scan, mDecodeScan.Value(), stdlib, mDecodeStdlib.Value())
	}
	crlf := strings.ReplaceAll(doc, "\n", "\r\n")
	if _, err := Parse(strings.NewReader(crlf)); err != nil {
		t.Fatal(err)
	}
	if mDecodeStdlib.Value() != stdlib+1 {
		t.Errorf("CRLF mapping did not take the encoding/xml path")
	}
}

// TestParseAllocs pins the scan path's allocations for Table I: the
// caller's reader, the string builder and its document copy, the pair
// slice, the index map (two objects) and the mapping. The encoding/xml
// path takes 229.
func TestParseAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var buf bytes.Buffer
	if err := tableI(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Parse(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 7
	t.Logf("Parse(Table I): %.0f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("Parse(Table I) allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
