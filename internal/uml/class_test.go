package uml

import (
	"strings"
	"testing"
)

// testModel builds a small model with the availability profile, two device
// classes, one connector association and no instances.
func testModel(t *testing.T) (*Model, *Class, *Class, *Association) {
	t.Helper()
	m := NewModel("test")
	p, dev, conn := buildAvailabilityProfile(t)
	if err := m.AddProfile(p); err != nil {
		t.Fatal(err)
	}
	comp, err := m.AddClass("Comp")
	if err != nil {
		t.Fatal(err)
	}
	app, err := comp.Apply(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []struct {
		k string
		v Value
	}{
		{"MTBF", RealValue(3000)},
		{"MTTR", RealValue(24.0)},
		{"redundantComponents", IntegerValue(0)},
	} {
		if err := app.Set(kv.k, kv.v); err != nil {
			t.Fatal(err)
		}
	}
	sw, err := m.AddClass("C6500")
	if err != nil {
		t.Fatal(err)
	}
	app2, err := sw.Apply(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := app2.Set("MTBF", RealValue(183498)); err != nil {
		t.Fatal(err)
	}
	if err := app2.Set("MTTR", RealValue(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := app2.Set("redundantComponents", IntegerValue(0)); err != nil {
		t.Fatal(err)
	}
	a, err := m.AddAssociation("Comp-C6500", comp, sw)
	if err != nil {
		t.Fatal(err)
	}
	capp, err := a.Apply(conn)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []struct {
		k string
		v Value
	}{
		{"MTBF", RealValue(1000000)},
		{"MTTR", RealValue(0.1)},
		{"redundantComponents", IntegerValue(0)},
	} {
		if err := capp.Set(kv.k, kv.v); err != nil {
			t.Fatal(err)
		}
	}
	return m, comp, sw, a
}

func TestClassStaticAttributes(t *testing.T) {
	_, comp, sw, _ := testModel(t)
	if v, ok := comp.Property("MTBF"); !ok || v.AsReal() != 3000 {
		t.Errorf("Comp MTBF = %v, %v", v, ok)
	}
	if v, ok := sw.Property("MTBF"); !ok || v.AsReal() != 183498 {
		t.Errorf("C6500 MTBF = %v, %v", v, ok)
	}
	if _, ok := comp.Property("throughput"); ok {
		t.Error("Comp should have no throughput")
	}
}

func TestClassOwnedProperties(t *testing.T) {
	_, comp, _, _ := testModel(t)
	if err := comp.SetProperty("manufacturer", StringValue("Dell")); err != nil {
		t.Fatal(err)
	}
	if v, ok := comp.Property("manufacturer"); !ok || v.AsString() != "Dell" {
		t.Errorf("manufacturer = %v, %v", v, ok)
	}
	// Owned property takes precedence over a stereotype attribute.
	if err := comp.SetProperty("MTBF", RealValue(9999)); err != nil {
		t.Fatal(err)
	}
	if v, _ := comp.Property("MTBF"); v.AsReal() != 9999 {
		t.Errorf("owned MTBF should shadow stereotype value, got %v", v)
	}
	if err := comp.SetProperty("", RealValue(1)); err == nil {
		t.Error("empty property name should fail")
	}
	if err := comp.SetProperty("x", Value{}); err == nil {
		t.Error("absent value should fail")
	}
}

func TestClassPropertyNames(t *testing.T) {
	_, comp, _, _ := testModel(t)
	names := comp.PropertyNames()
	want := []string{"MTBF", "MTTR", "redundantComponents"}
	if len(names) != len(want) {
		t.Fatalf("PropertyNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("PropertyNames[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestClassApplyConstraints(t *testing.T) {
	m, comp, _, _ := testModel(t)
	p, _ := m.Profile("availability")
	compSt, _ := p.Stereotype("Component")
	connSt, _ := p.Stereotype("Connector")
	devSt, _ := p.Stereotype("Device")
	if _, err := comp.Apply(compSt); err == nil {
		t.Error("abstract stereotype must not be applicable")
	}
	if _, err := comp.Apply(connSt); err == nil {
		t.Error("association stereotype must not apply to a class")
	}
	if _, err := comp.Apply(devSt); err == nil {
		t.Error("double application must fail")
	}
	if _, err := comp.Apply(nil); err == nil {
		t.Error("nil stereotype must fail")
	}
}

func TestClassStereotypeLookup(t *testing.T) {
	_, comp, _, _ := testModel(t)
	if !comp.HasStereotype("Device") {
		t.Error("Comp must be <<Device>>")
	}
	// Lookup through the generalisation chain: Device is a Component.
	if !comp.HasStereotype("Component") {
		t.Error("Comp must be kind of <<Component>>")
	}
	if comp.HasStereotype("Connector") {
		t.Error("Comp is not a Connector")
	}
	if got := comp.StereotypeNames(); len(got) != 1 || got[0] != "Device" {
		t.Errorf("StereotypeNames = %v", got)
	}
	if s := comp.String(); !strings.Contains(s, "<<Device>>") || !strings.Contains(s, "Comp") {
		t.Errorf("String = %q", s)
	}
}

func TestAssociationBasics(t *testing.T) {
	m, comp, sw, a := testModel(t)
	ea, eb := a.Ends()
	if ea != comp || eb != sw {
		t.Error("Ends mismatch")
	}
	if !a.Joins(comp, sw) || !a.Joins(sw, comp) {
		t.Error("Joins must be orientation independent")
	}
	other, _ := m.AddClass("Other")
	if a.Joins(comp, other) {
		t.Error("Joins(comp, other) must be false")
	}
	if v, ok := a.Property("MTBF"); !ok || v.AsReal() != 1000000 {
		t.Errorf("connector MTBF = %v, %v", v, ok)
	}
	_, connector := a.Application("Connector")
	_, component := a.Application("Component")
	if !connector || !component {
		t.Error("association must be <<Connector>> and kind of Component")
	}
	if s := a.String(); !strings.Contains(s, "Connector") {
		t.Errorf("String = %q", s)
	}
}

func TestAssociationApplyConstraints(t *testing.T) {
	m, _, _, a := testModel(t)
	p, _ := m.Profile("availability")
	devSt, _ := p.Stereotype("Device")
	connSt, _ := p.Stereotype("Connector")
	compSt, _ := p.Stereotype("Component")
	if _, err := a.Apply(devSt); err == nil {
		t.Error("class stereotype must not apply to an association")
	}
	if _, err := a.Apply(compSt); err == nil {
		t.Error("abstract stereotype must not be applicable")
	}
	if _, err := a.Apply(connSt); err == nil {
		t.Error("double application must fail")
	}
	if _, err := a.Apply(nil); err == nil {
		t.Error("nil stereotype must fail")
	}
}

func TestModelLookups(t *testing.T) {
	m, comp, sw, a := testModel(t)
	if c, ok := m.Class("Comp"); !ok || c != comp {
		t.Error("Class lookup failed")
	}
	if _, ok := m.Class("nope"); ok {
		t.Error("unknown class should be absent")
	}
	if got, ok := m.Association("Comp-C6500"); !ok || got != a {
		t.Error("Association lookup failed")
	}
	if got, ok := m.AssociationBetween(sw, comp); !ok || got != a {
		t.Error("AssociationBetween must be orientation independent")
	}
	if _, ok := m.AssociationBetween(comp, comp); ok {
		t.Error("no self association exists")
	}
	if _, ok := m.FindStereotype("Device"); !ok {
		t.Error("FindStereotype(Device) failed")
	}
	if _, ok := m.FindStereotype("Nope"); ok {
		t.Error("FindStereotype(Nope) should be absent")
	}
}

func TestModelDuplicates(t *testing.T) {
	m, comp, sw, _ := testModel(t)
	if _, err := m.AddClass("Comp"); err == nil {
		t.Error("duplicate class should fail")
	}
	if _, err := m.AddClass(""); err == nil {
		t.Error("empty class name should fail")
	}
	if _, err := m.AddAssociation("Comp-C6500", comp, sw); err == nil {
		t.Error("duplicate association should fail")
	}
	if _, err := m.AddAssociation("", comp, sw); err == nil {
		t.Error("empty association name should fail")
	}
	if _, err := m.AddAssociation("x", nil, sw); err == nil {
		t.Error("nil end should fail")
	}
	other := NewModel("other")
	oc, _ := other.AddClass("C")
	if _, err := m.AddAssociation("y", comp, oc); err == nil {
		t.Error("cross-model association should fail")
	}
	if err := m.AddProfile(nil); err == nil {
		t.Error("nil profile should fail")
	}
	p := NewProfile("availability")
	if err := m.AddProfile(p); err == nil {
		t.Error("duplicate profile name should fail")
	}
}

func TestMustClass(t *testing.T) {
	m, comp, _, _ := testModel(t)
	if m.MustClass("Comp") != comp {
		t.Error("MustClass returned wrong class")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustClass on unknown class should panic")
		}
	}()
	m.MustClass("unknown")
}
