package uml

import (
	"bytes"
	"strings"
	"testing"
)

// fullFixture builds a model exercising every serialisable feature: profile
// with abstract parents and defaults, classes with applications and owned
// properties, associations, an object diagram and two activities.
func fullFixture(t *testing.T) *Model {
	t.Helper()
	m, comp, sw, _ := testModel(t)
	net := NewProfile("network")
	nd, err := net.DefineAbstractStereotype("NetworkDevice", MetaclassClass)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.AddAttribute("manufacturer", KindString); err != nil {
		t.Fatal(err)
	}
	if err := nd.AddAttributeDefault("model", KindString, StringValue("unknown")); err != nil {
		t.Fatal(err)
	}
	swSt, err := net.DefineSubStereotype("Switch", MetaclassNone, nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddProfile(net); err != nil {
		t.Fatal(err)
	}
	app, err := sw.Apply(swSt)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Set("manufacturer", StringValue("Cisco")); err != nil {
		t.Fatal(err)
	}
	if err := comp.SetProperty("category", StringValue("endpoint")); err != nil {
		t.Fatal(err)
	}
	d := m.NewObjectDiagram("infra")
	t1, _ := d.AddInstance("t1", comp)
	c1, _ := d.AddInstance("c1", sw)
	a, _ := m.Association("Comp-C6500")
	if _, err := d.Connect(t1, c1, a); err != nil {
		t.Fatal(err)
	}
	buildPrintingActivity(t, m)
	buildParallelActivity(t, m)
	return m
}

func TestXMIRoundTrip(t *testing.T) {
	m := fullFixture(t)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v\n%s", err, buf.String())
	}

	if got.Name() != m.Name() {
		t.Errorf("name = %q, want %q", got.Name(), m.Name())
	}
	// Profiles and stereotypes survive, including abstractness, parents,
	// extensions and defaults.
	net, ok := got.Profile("network")
	if !ok {
		t.Fatal("network profile missing")
	}
	nd, ok := net.Stereotype("NetworkDevice")
	if !ok || !nd.IsAbstract() || nd.Extends() != MetaclassClass {
		t.Errorf("NetworkDevice decoded wrong: %+v", nd)
	}
	swSt, ok := net.Stereotype("Switch")
	if !ok || swSt.Parent() != nd || swSt.Extends() != MetaclassClass {
		t.Error("Switch decoded wrong")
	}
	if def, ok := nd.Attribute("model"); !ok || def.Default.AsString() != "unknown" {
		t.Errorf("model default = %v, %v", def, ok)
	}

	// Class attribute values survive, both stereotype values and owned
	// properties.
	sw := got.MustClass("C6500")
	if v, ok := sw.Property("MTBF"); !ok || v.AsReal() != 183498 {
		t.Errorf("C6500 MTBF = %v, %v", v, ok)
	}
	if v, ok := sw.Property("manufacturer"); !ok || v.AsString() != "Cisco" {
		t.Errorf("C6500 manufacturer = %v, %v", v, ok)
	}
	if v, ok := sw.Property("model"); !ok || v.AsString() != "unknown" {
		t.Errorf("C6500 model default = %v, %v", v, ok)
	}
	comp := got.MustClass("Comp")
	if v, ok := comp.Property("category"); !ok || v.AsString() != "endpoint" {
		t.Errorf("Comp category = %v, %v", v, ok)
	}

	// Associations and their stereotype values survive.
	a, ok := got.Association("Comp-C6500")
	if !ok {
		t.Fatal("association missing")
	}
	if v, ok := a.Property("MTBF"); !ok || v.AsReal() != 1000000 {
		t.Errorf("connector MTBF = %v, %v", v, ok)
	}

	// Object diagram survives.
	d, ok := got.Diagram("infra")
	if !ok {
		t.Fatal("diagram missing")
	}
	if d.NumInstances() != 2 || d.NumLinks() != 1 {
		t.Errorf("diagram = %d instances, %d links", d.NumInstances(), d.NumLinks())
	}
	t1, ok := d.Instance("t1")
	if !ok || t1.Classifier().Name() != "Comp" {
		t.Error("t1 decoded wrong")
	}

	// Activities survive with structure intact.
	printing, ok := got.Activity("printing")
	if !ok {
		t.Fatal("printing activity missing")
	}
	stages, err := printing.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 5 {
		t.Errorf("printing stages = %d, want 5", len(stages))
	}
	par, ok := got.Activity("parallel")
	if !ok {
		t.Fatal("parallel activity missing")
	}
	pstages, err := par.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pstages) != 3 || len(pstages[1]) != 2 {
		t.Errorf("parallel stages = %v", pstages)
	}
}

func TestXMIDoubleRoundTripStable(t *testing.T) {
	m := fullFixture(t)
	var b1, b2 bytes.Buffer
	if err := Encode(&b1, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b2, m2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("XML not stable across round trips")
	}
}

// decodeErrorCases are documents Decode must reject, one per error class:
// XML syntax, each semantic check of the model build, then encoding/xml's
// own unmarshal errors.
var decodeErrorCases = []struct {
	name string
	xml  string
}{
	{"malformed xml", `<uml.Model name="x"><class`},
	{"unknown parent stereotype", `<uml.Model name="x"><profile name="p"><stereotype name="S" extends="Class" parent="Ghost"></stereotype></profile></uml.Model>`},
	{"unknown class in association", `<uml.Model name="x"><association name="a" endA="A" endB="B"></association></uml.Model>`},
	{"unknown stereotype applied", `<uml.Model name="x"><class name="C"><apply stereotype="Ghost"></apply></class></uml.Model>`},
	{"unknown class in instance", `<uml.Model name="x"><objectDiagram name="d"><instance name="i" class="Ghost"/></objectDiagram></uml.Model>`},
	{"unknown association in link", `<uml.Model name="x"><class name="C"/><objectDiagram name="d"><instance name="i" class="C"/><instance name="j" class="C"/><link a="i" b="j" association="Ghost"/></objectDiagram></uml.Model>`},
	{"bad node kind", `<uml.Model name="x"><activity name="a"><node id="0" kind="Initial"/><node id="1" kind="Decision"/></activity></uml.Model>`},
	{"duplicate node id", `<uml.Model name="x"><activity name="a"><node id="0" kind="Initial"/><node id="0" kind="Final"/></activity></uml.Model>`},
	{"flow from unknown node", `<uml.Model name="x"><activity name="a"><node id="0" kind="Initial"/><flow src="9" dst="0"/></activity></uml.Model>`},
	{"bad attribute type", `<uml.Model name="x"><profile name="p"><stereotype name="S" extends="Class"><attribute name="a" type="Complex"/></stereotype></profile></uml.Model>`},
	{"bad metaclass", `<uml.Model name="x"><profile name="p"><stereotype name="S" extends="Package"/></profile></uml.Model>`},
	{"bad stereotype value", `<uml.Model name="x"><profile name="p"><stereotype name="S" extends="Class"><attribute name="a" type="Real"/></stereotype></profile><class name="C"><apply stereotype="S"><value attribute="a">NaNaN</value></apply></class></uml.Model>`},
	{"unknown stereotype attribute value", `<uml.Model name="x"><profile name="p"><stereotype name="S" extends="Class"/></profile><class name="C"><apply stereotype="S"><value attribute="ghost">1</value></apply></class></uml.Model>`},
	{"bad node id", `<uml.Model name="x"><activity name="a"><node id="zero" kind="Initial"/></activity></uml.Model>`},
	{"wrong root element", `<model name="x"></model>`},
}

// TestDecodeErrors: every case fails, and with the error text of the
// encoding/xml path, whichever parser served it.
func TestDecodeErrors(t *testing.T) {
	for _, c := range decodeErrorCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(c.xml))
			if err == nil {
				t.Fatalf("Decode should fail for %s", c.name)
			}
			var x xmiModel
			want := decodeStdlib(c.xml, &x)
			if want == nil {
				_, want = x.build()
			}
			if want == nil || err.Error() != want.Error() {
				t.Errorf("error = %q, encoding/xml path = %v", err, want)
			}
		})
	}
}

// TestDecodeCountsParser: upsim_uml_decode_total counts each decode under
// the parser that served it.
func TestDecodeCountsParser(t *testing.T) {
	scan, std := mDecodeScan.Value(), mDecodeStdlib.Value()
	if _, err := DecodeString(`<uml.Model name="x"/>`); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeString(`<uml.Model name="x"><!-- comment --></uml.Model>`); err != nil {
		t.Fatal(err)
	}
	if got := mDecodeScan.Value() - scan; got != 1 {
		t.Errorf("scan decodes = %d, want 1", got)
	}
	if got := mDecodeStdlib.Value() - std; got != 1 {
		t.Errorf("stdlib decodes = %d, want 1", got)
	}
}
