package mapping

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
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
	comps := m.Components()
	want := []string{"t1", "printS", "p2"}
	if len(comps) != 3 {
		t.Fatalf("Components = %v", comps)
	}
	for i := range want {
		if comps[i] != want[i] {
			t.Errorf("Components[%d] = %s, want %s", i, comps[i], want[i])
		}
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

func TestRemap(t *testing.T) {
	m := tableI(t)
	// New perspective: client t15, printer p3 (the paper's Figure 12 shift).
	if err := m.Remap("Request printing", "t15", "printS"); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Pair("Request printing")
	if p.Requester != "t15" {
		t.Errorf("after remap: %+v", p)
	}
	if err := m.Remap("ghost", "a", "b"); err == nil {
		t.Error("remapping unknown service should fail")
	}
	if err := m.Remap("Request printing", "x", "x"); err == nil {
		t.Error("remap to identical pair should fail")
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
	if err := c.Remap("Request printing", "t15", "printS"); err != nil {
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
