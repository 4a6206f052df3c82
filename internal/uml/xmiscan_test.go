package uml_test

import (
	"math/rand"
	"reflect"
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
// encoding/xml parses it to the same xmiModel, and DecodeString fails
// exactly when the encoding/xml path fails, with the same error text. The
// seeds are Encode outputs, the TestDecodeErrors documents and valid XML
// outside the scanned subset.
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
		_, err := uml.DecodeString(doc)
		_, want := uml.DecodeStdlib(doc)
		if errText(err) != errText(want) {
			t.Fatalf("DecodeString error %q, encoding/xml path %q:\n%q", errText(err), errText(want), doc)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDecodeStringAllocs pins the allocations of a cold decode of the
// largest churn campus (16 edge switches, ~19 KB): the scan, one backing
// string and the model build, which alone is ~775 allocations. The
// encoding/xml path took 7,292; the scan path measures 872 (go1.24,
// linux/amd64).
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
	if allocs > 900 {
		t.Errorf("DecodeString: %.0f allocs, want ≤ 900", allocs)
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
