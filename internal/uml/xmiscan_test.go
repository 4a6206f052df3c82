package uml_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"upsim/internal/casestudy"
	"upsim/internal/modelgen"
	"upsim/internal/service"
	"upsim/internal/testutil"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

func encode(tb testing.TB, m *uml.Model) string {
	tb.Helper()
	var b strings.Builder
	if err := uml.Encode(&b, m); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// campusXML encodes a generated campus with the given number of edge
// switches: the shape of the upsimd churn traffic, whose largest model has
// 16 edge switches.
func campusXML(tb testing.TB, edges int) string {
	tb.Helper()
	g, err := topology.Campus(topology.CampusParams{EdgeSwitches: edges, ClientsPerEdge: 6, ServersPerSwitch: 4, RedundantCore: true})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := modelgen.Build("campus", g, modelgen.Params{Classes: map[string]modelgen.ClassParams{
		"Client": {MTBF: 31415.926535, MTTR: 24},
		"Server": {MTBF: 27182.818284, MTTR: 0.5},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := service.NewSequential(m, "rpc", "request", "process", "reply"); err != nil {
		tb.Fatal(err)
	}
	return encode(tb, m)
}

// escapingXML encodes a model whose names and values need every escape
// Encode writes: markup characters, quotes, tab, newline, carriage return
// and non-ASCII text.
func escapingXML(tb testing.TB) string {
	tb.Helper()
	const odd = "a<b & \"c\" 'd'\t\n\r — é"
	m := uml.NewModel(odd)
	p := uml.NewProfile("p")
	st, err := p.DefineStereotype("S", uml.MetaclassClass)
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.AddAttributeDefault("s", uml.KindString, uml.StringValue(odd)); err != nil {
		tb.Fatal(err)
	}
	if err := m.AddProfile(p); err != nil {
		tb.Fatal(err)
	}
	c, err := m.AddClass("C " + odd)
	if err != nil {
		tb.Fatal(err)
	}
	app, err := c.Apply(st)
	if err != nil {
		tb.Fatal(err)
	}
	if err := app.Set("s", uml.StringValue(odd+odd)); err != nil {
		tb.Fatal(err)
	}
	if err := c.SetProperty("own", uml.StringValue(odd)); err != nil {
		tb.Fatal(err)
	}
	return encode(tb, m)
}

// encodedModels are Encode outputs of random, case-study, campus and
// escaping models.
func encodedModels(tb testing.TB) []string {
	tb.Helper()
	var docs []string
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		m, err := uml.RandomModel(rng)
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, encode(tb, m))
	}
	cs, err := casestudy.BuildModel()
	if err != nil {
		tb.Fatal(err)
	}
	return append(docs, encode(tb, cs), campusXML(tb, 4), escapingXML(tb))
}

// TestEncodeTakesScanPath: the scanner accepts everything Encode writes, so
// the fast path cannot silently fall back to encoding/xml.
func TestEncodeTakesScanPath(t *testing.T) {
	for i, doc := range encodedModels(t) {
		if _, ok := uml.ScanXMI(doc); !ok {
			t.Errorf("document %d: Encode output falls back to encoding/xml:\n%.300s", i, doc)
		}
	}
}

// FuzzDecodeAgreesWithOracle: whenever the scanner accepts a document,
// encoding/xml parses it to the same xmiModel; and DecodeString fails
// exactly when the oracle (encoding/xml, then a build through the public
// API alone) fails, with the same error text, and otherwise yields a model
// with the same Encode bytes. The seeds are Encode outputs, the
// TestDecodeErrors documents and valid XML outside the scanned subset.
func FuzzDecodeAgreesWithOracle(f *testing.F) {
	encoded := encodedModels(f)
	for _, doc := range encoded {
		f.Add(doc)
	}
	for _, doc := range uml.DecodeErrorDocs() {
		f.Add(doc)
	}
	const body = `<profile name="p"><stereotype name="S" extends="Class"><attribute name="s" type="String" default="d" hasDefault="true"/></stereotype></profile>` +
		`<class name="C"><apply stereotype="S"><value attribute="s">%s</value></apply></class>`
	withValue := func(value string) string {
		return `<uml.Model name="x">` + strings.Replace(body, "%s", value, 1) + `</uml.Model>`
	}
	for _, s := range []string{
		`<uml.Model name='x'><class name='C'/></uml.Model>`,
		withValue("a&amp;b&#x41;&#66;&lt;&gt;&quot;&apos;"),
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + withValue("v"),
		`<?xml version='1.0'?>` + withValue("v"),
		`<?xml version="1.1"?>` + withValue("v"),
		withValue("a<!-- c -->b"),
		withValue("<![CDATA[a<b]]>"),
		strings.ReplaceAll(encoded[0], "\n", "\r\n"),
		withValue("v") + "trailing <bytes",
		withValue("v]]>"),
		withValue("&#xD800;"),
		`<uml.Model name="x" name="y"></uml.Model>`,
		`<uml.Model xmlns="urn:x" name="x"></uml.Model>`,
		`<uml:Model name="x"></uml:Model>`,
		`<uml.Model name="x"><activity name="a"><node id="+1" kind="Initial"/></activity></uml.Model>`,
		`<uml.Model name="x"/>`,
		"<uml.Model\tname = \"x\"\n><class name=\"C\"\t/><class name=\"D\" ></class ></uml.Model >",
		`<?xml version="1.0" encoding="utf-8" standalone="yes" ?>` + withValue("\tv&#9;"),
		withValue(" ") + "\x00",
		"\ufeff" + withValue("v"),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if scanned, ok := uml.ScanXMI(doc); ok {
			parsed, err := uml.StdlibXMI(doc)
			if err != nil {
				t.Fatalf("scanner accepts what encoding/xml rejects (%v):\n%q", err, doc)
			}
			if !reflect.DeepEqual(scanned, parsed) {
				t.Fatalf("scanner and encoding/xml disagree:\n%q\nscan:   %+v\nstdlib: %+v", doc, scanned, parsed)
			}
		}
		agreeWithOracle(t, doc)
	})
}

// agreeWithOracle fails t unless DecodeString and the oracle DecodeStdlib
// give the same error text for doc, or models with the same Encode bytes.
func agreeWithOracle(t *testing.T, doc string) {
	t.Helper()
	got, err := uml.DecodeString(doc)
	want, wantErr := uml.DecodeStdlib(doc)
	if errText(err) != errText(wantErr) {
		t.Fatalf("DecodeString error %q, oracle %q:\n%q", errText(err), errText(wantErr), doc)
	}
	if err == nil {
		if g, w := encode(t, got), encode(t, want); g != w {
			t.Fatalf("DecodeString and the oracle build different models:\n%q\ngot:\n%s\nwant:\n%s", doc, g, w)
		}
	}
}

// TestDecodeAgreesWithOracleBuild holds the slab-sized build to the oracle
// on more and larger documents than the fuzz seeds: 64 random models, the
// largest churn campus, the case study, and each with one element line
// repeated — a duplicate instance, link, application or value — so that
// every build error Encode output can trip compares its text too.
func TestDecodeAgreesWithOracleBuild(t *testing.T) {
	docs := append(encodedModels(t), campusXML(t, 16))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		m, err := uml.RandomModel(rng)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, encode(t, m))
	}
	for _, doc := range docs {
		agreeWithOracle(t, doc)
		lines := strings.SplitAfter(doc, "\n")
		for _, elem := range []string{"instance", "link", "apply", "value"} {
			i := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, "<"+elem+" ") })
			if i < 0 {
				continue
			}
			j := i // the last line of the element
			for !strings.Contains(lines[j], "/>") && !strings.Contains(lines[j], "</"+elem+">") {
				j++
			}
			agreeWithOracle(t, strings.Join(lines[:j+1], "")+strings.Join(lines[i:], ""))
		}
	}
	for _, doc := range uml.DecodeErrorDocs() {
		agreeWithOracle(t, doc)
	}
}

// TestDecodedDiagramGrowsPastSlab: a decoded diagram's instances and links
// sit in slabs sized to the document, so an instance or link added later —
// as a topology change adds a client to the infrastructure — is allocated
// on its own. Every earlier instance and link keeps its pointer and
// contents, and LinksBetween keeps its order, the new parallel link last.
func TestDecodedDiagramGrowsPastSlab(t *testing.T) {
	m, err := uml.DecodeString(campusXML(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, ok := m.Diagram("infrastructure")
	if !ok {
		t.Fatal("no infrastructure diagram")
	}
	insts, links := d.Instances(), d.Links()
	sigs := make([]string, len(links))
	type pair struct{ a, b string }
	between := make(map[pair][]*uml.Link)
	for i, l := range links {
		sigs[i] = l.Signature()
		a, b := l.Ends()
		between[pair{a.Name(), b.Name()}] = d.LinksBetween(a.Name(), b.Name())
	}

	first := links[0]
	a, b := first.Ends()
	grown, err := d.AddInstance("grown", a.Classifier())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Connect(grown, b, first.Association()); err != nil {
		t.Fatal(err)
	}
	assoc, err := m.AddAssociation("parallel", a.Classifier(), b.Classifier())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := d.Connect(b, a, assoc)
	if err != nil {
		t.Fatal(err)
	}
	between[pair{a.Name(), b.Name()}] = append(between[pair{a.Name(), b.Name()}], parallel)

	for i, inst := range insts {
		if got, _ := d.Instance(inst.Name()); got != inst || d.InstanceAt(i) != inst {
			t.Errorf("instance %d (%s) moved", i, inst.Name())
		}
	}
	for i, l := range links {
		if d.LinkAt(i) != l || l.Signature() != sigs[i] {
			t.Errorf("link %d moved or changed: %s, was %s", i, l.Signature(), sigs[i])
		}
	}
	for p, want := range between {
		for _, got := range [][]*uml.Link{d.LinksBetween(p.a, p.b), d.LinksBetween(p.b, p.a)} {
			if !slices.Equal(got, want) {
				t.Errorf("LinksBetween(%s, %s) = %v, want %v", p.a, p.b, got, want)
			}
		}
	}
	if got := d.LinksBetween("grown", b.Name()); len(got) != 1 || got[0].Association() != first.Association() {
		t.Errorf("LinksBetween(grown, %s) = %v", b.Name(), got)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDecodeStringAllocs pins the allocations of a cold decode of the
// largest churn campus (16 edge switches, ~19 KB): the scan, one backing
// string and the model build. The encoding/xml path took 7,292; the scan
// path measured 852 with one heap object per UML element, and measures
// 217 with the build drawing from slabs sized by the parsed counts
// (go1.24, linux/amd64).
func TestDecodeStringAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	doc := campusXML(t, 16)
	if _, ok := uml.ScanXMI(doc); !ok {
		t.Fatal("campus document falls back to encoding/xml")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := uml.DecodeString(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeString: %.0f allocs", allocs)
	if allocs > 240 {
		t.Errorf("DecodeString: %.0f allocs, want ≤ 240", allocs)
	}
}

// TestDecodeDetachesStrings: no string reachable from a decoded model
// points into the decoded text, so a pooled model does not pin a request
// body.
func TestDecodeDetachesStrings(t *testing.T) {
	for _, doc := range encodedModels(t) {
		padded := doc + strings.Repeat(" ", 1<<16)
		m, err := uml.DecodeString(padded)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(padded)))
		hi := lo + uintptr(len(padded))
		n := 0
		walkStrings(reflect.ValueOf(m), map[visit]bool{}, func(s string) {
			n++
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && p >= lo && p < hi {
				t.Errorf("model %q retains %q from the input", m.Name(), s)
			}
		})
		if n < 10 {
			t.Fatalf("model %q: only %d strings reachable", m.Name(), n)
		}
	}
}

type visit struct {
	p uintptr
	t reflect.Type
}

// walkStrings calls fn on every string reachable from v, map keys included.
func walkStrings(v reflect.Value, seen map[visit]bool, fn func(string)) {
	switch v.Kind() {
	case reflect.String:
		fn(v.String())
	case reflect.Pointer:
		if v.IsNil() || seen[visit{v.Pointer(), v.Type()}] {
			return
		}
		seen[visit{v.Pointer(), v.Type()}] = true
		walkStrings(v.Elem(), seen, fn)
	case reflect.Interface:
		if !v.IsNil() {
			walkStrings(v.Elem(), seen, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkStrings(v.Field(i), seen, fn)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkStrings(v.Index(i), seen, fn)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			walkStrings(it.Key(), seen, fn)
			walkStrings(it.Value(), seen, fn)
		}
	}
}
