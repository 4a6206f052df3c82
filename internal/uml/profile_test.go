package uml

import (
	"strings"
	"testing"
)

// buildAvailabilityProfile reproduces the paper's Figure 6 profile: an
// abstract Component stereotype with MTBF/MTTR/redundantComponents, and
// Device/Connector specialisations extending Class and Association.
func buildAvailabilityProfile(t *testing.T) (*Profile, *Stereotype, *Stereotype) {
	t.Helper()
	p := NewProfile("availability")
	comp, err := p.DefineAbstractStereotype("Component", MetaclassNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		name string
		kind ValueKind
	}{
		{"MTBF", KindReal},
		{"MTTR", KindReal},
		{"redundantComponents", KindInteger},
	} {
		if err := comp.AddAttribute(a.name, a.kind); err != nil {
			t.Fatal(err)
		}
	}
	dev, err := p.DefineSubStereotype("Device", MetaclassClass, comp)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := p.DefineSubStereotype("Connector", MetaclassAssociation, comp)
	if err != nil {
		t.Fatal(err)
	}
	return p, dev, conn
}

func TestProfileDefinition(t *testing.T) {
	p, dev, conn := buildAvailabilityProfile(t)
	if p.Name() != "availability" {
		t.Errorf("Name = %q", p.Name())
	}
	if got := len(p.Stereotypes()); got != 3 {
		t.Fatalf("len(Stereotypes) = %d, want 3", got)
	}
	comp, ok := p.Stereotype("Component")
	if !ok {
		t.Fatal("Component not found")
	}
	if !comp.IsAbstract() {
		t.Error("Component must be abstract")
	}
	if dev.Extends() != MetaclassClass {
		t.Errorf("Device extends %v, want Class", dev.Extends())
	}
	if conn.Extends() != MetaclassAssociation {
		t.Errorf("Connector extends %v, want Association", conn.Extends())
	}
	if dev.Parent() != comp {
		t.Error("Device parent must be Component")
	}
}

func TestStereotypeAttributeInheritance(t *testing.T) {
	_, dev, _ := buildAvailabilityProfile(t)
	all := dev.AllAttributes()
	if len(all) != 3 {
		t.Fatalf("Device inherits %d attributes, want 3", len(all))
	}
	if all[0].Name != "MTBF" || all[1].Name != "MTTR" || all[2].Name != "redundantComponents" {
		t.Errorf("attribute order = %v", all)
	}
	if def, ok := dev.Attribute("MTBF"); !ok || def.Kind != KindReal {
		t.Errorf("Attribute(MTBF) = %v, %v", def, ok)
	}
	if _, ok := dev.Attribute("nonexistent"); ok {
		t.Error("Attribute(nonexistent) should be absent")
	}
	if len(dev.OwnAttributes()) != 0 {
		t.Error("Device declares no own attributes")
	}
}

func TestStereotypeIsKindOf(t *testing.T) {
	_, dev, conn := buildAvailabilityProfile(t)
	if !dev.IsKindOf("Component") || !dev.IsKindOf("Device") {
		t.Error("Device must be kind of Device and Component")
	}
	if dev.IsKindOf("Connector") {
		t.Error("Device is not kind of Connector")
	}
	if !conn.IsKindOf("Component") {
		t.Error("Connector must be kind of Component")
	}
}

func TestStereotypeDuplicateAttribute(t *testing.T) {
	_, dev, _ := buildAvailabilityProfile(t)
	// Shadowing an inherited attribute is forbidden.
	if err := dev.AddAttribute("MTBF", KindReal); err == nil {
		t.Error("shadowing inherited MTBF should fail")
	}
	if err := dev.AddAttribute("", KindReal); err == nil {
		t.Error("empty attribute name should fail")
	}
	if err := dev.AddAttribute("x", KindNone); err == nil {
		t.Error("attribute without type should fail")
	}
}

func TestStereotypeDefaults(t *testing.T) {
	p := NewProfile("net")
	st, err := p.DefineStereotype("Communication", MetaclassAssociation)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddAttributeDefault("channel", KindString, StringValue("copper")); err != nil {
		t.Fatal(err)
	}
	if err := st.AddAttributeDefault("throughput", KindReal, IntegerValue(100)); err == nil {
		t.Error("default of wrong kind should fail")
	}
	app := new(Model).newApplication(st)
	if v, ok := app.Get("channel"); !ok || v.AsString() != "copper" {
		t.Errorf("default channel = %v, %v", v, ok)
	}
	if err := app.Set("channel", StringValue("fiber")); err != nil {
		t.Fatal(err)
	}
	if v, _ := app.Get("channel"); v.AsString() != "fiber" {
		t.Errorf("channel after Set = %v", v)
	}
}

func TestApplicationSetErrors(t *testing.T) {
	_, dev, _ := buildAvailabilityProfile(t)
	app := new(Model).newApplication(dev)
	if err := app.Set("MTBF", StringValue("high")); err == nil {
		t.Error("kind mismatch should fail")
	}
	if err := app.Set("unknown", RealValue(1)); err == nil {
		t.Error("unknown attribute should fail")
	}
	if err := app.Set("MTBF", RealValue(60000)); err != nil {
		t.Fatal(err)
	}
	got := app.SetValues()
	if len(got) != 1 || got[0] != "MTBF" {
		t.Errorf("SetValues = %v", got)
	}
}

func TestProfileDuplicateStereotype(t *testing.T) {
	p := NewProfile("x")
	if _, err := p.DefineStereotype("S", MetaclassClass); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DefineStereotype("S", MetaclassClass); err == nil {
		t.Error("duplicate stereotype should fail")
	}
	if _, err := p.DefineStereotype("", MetaclassClass); err == nil {
		t.Error("empty name should fail")
	}
}

func TestSubStereotypeConstraints(t *testing.T) {
	p := NewProfile("x")
	parent, _ := p.DefineStereotype("P", MetaclassClass)
	if _, err := p.DefineSubStereotype("C", MetaclassAssociation, parent); err == nil {
		t.Error("child extending Association under Class parent should fail")
	}
	if _, err := p.DefineSubStereotype("C", MetaclassNone, parent); err != nil {
		t.Fatal(err)
	}
	child, _ := p.Stereotype("C")
	if child.Extends() != MetaclassClass {
		t.Errorf("child inherits extension, got %v", child.Extends())
	}
	if _, err := p.DefineSubStereotype("D", MetaclassClass, nil); err == nil {
		t.Error("nil parent should fail")
	}
	other := NewProfile("y")
	op, _ := other.DefineStereotype("OP", MetaclassClass)
	if _, err := p.DefineSubStereotype("E", MetaclassClass, op); err == nil {
		t.Error("cross-profile parent should fail")
	}
}

func TestMetaclassParse(t *testing.T) {
	for _, m := range []Metaclass{MetaclassNone, MetaclassClass, MetaclassAssociation} {
		got, err := ParseMetaclass(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMetaclass(%s) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseMetaclass("Package"); err == nil {
		t.Error("ParseMetaclass(Package) should fail")
	}
	if !strings.Contains(Metaclass(99).String(), "Metaclass(") {
		t.Error("unknown metaclass String format")
	}
}
