package uml

import (
	"strings"
	"testing"
)

// diagramFixture creates a model with classes Comp and C6500, association
// Comp-C6500, plus a switch-to-switch association, and an object diagram
// with a few instances.
func diagramFixture(t *testing.T) (*Model, *ObjectDiagram) {
	t.Helper()
	m, comp, sw, _ := testModel(t)
	if _, err := m.AddAssociation("C6500-C6500", sw, sw); err != nil {
		t.Fatal(err)
	}
	d := m.NewObjectDiagram("infra")
	for _, n := range []string{"t1", "t2"} {
		if _, err := d.AddInstance(n, comp); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"c1", "c2"} {
		if _, err := d.AddInstance(n, sw); err != nil {
			t.Fatal(err)
		}
	}
	return m, d
}

func TestInstancePropertiesDelegateToClass(t *testing.T) {
	_, d := diagramFixture(t)
	t1, _ := d.Instance("t1")
	if v, ok := t1.Property("MTBF"); !ok || v.AsReal() != 3000 {
		t.Errorf("t1 MTBF = %v, %v", v, ok)
	}
	if !t1.Classifier().HasStereotype("Device") || !t1.Classifier().HasStereotype("Component") {
		t.Error("instance must report classifier stereotypes")
	}
	if t1.Signature() != "t1:Comp" {
		t.Errorf("Signature = %q", t1.Signature())
	}
	if t1.String() != "t1:Comp" {
		t.Errorf("String = %q", t1.String())
	}
}

func TestDiagramAddInstanceErrors(t *testing.T) {
	m, d := diagramFixture(t)
	comp := m.MustClass("Comp")
	if _, err := d.AddInstance("t1", comp); err == nil {
		t.Error("duplicate instance should fail")
	}
	if _, err := d.AddInstance("", comp); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := d.AddInstance("x", nil); err == nil {
		t.Error("nil class should fail")
	}
	other := NewModel("other")
	oc, _ := other.AddClass("C")
	if _, err := d.AddInstance("y", oc); err == nil {
		t.Error("class from another model should fail")
	}
}

func TestConnectRespectsAssociations(t *testing.T) {
	m, d := diagramFixture(t)
	a, _ := m.Association("Comp-C6500")
	ss, _ := m.Association("C6500-C6500")
	l, err := d.ConnectByName("t1", "c1", a)
	if err != nil {
		t.Fatal(err)
	}
	ia, ib := l.Ends()
	if ia.Name() != "t1" || ib.Name() != "c1" {
		t.Errorf("link ends = %s, %s", ia, ib)
	}
	if _, err := d.ConnectByName("c1", "c2", ss); err != nil {
		t.Fatal(err)
	}
	// t1 and t2 are both Comp; no association joins Comp with Comp.
	if _, err := d.ConnectByName("t1", "t2", a); err == nil {
		t.Error("link not ruled by an association must fail")
	}
	// Duplicate link over the same association.
	if _, err := d.ConnectByName("c1", "t1", a); err == nil {
		t.Error("duplicate link (reversed) should fail")
	}
	if _, err := d.ConnectByName("t1", "t1", a); err == nil {
		t.Error("self link should fail")
	}
	if _, err := d.ConnectByName("ghost", "c1", a); err == nil {
		t.Error("unknown instance should fail")
	}
	if _, err := d.ConnectByName("t1", "ghost", a); err == nil {
		t.Error("unknown instance should fail")
	}
	t1, _ := d.Instance("t1")
	c1, _ := d.Instance("c1")
	if _, err := d.Connect(t1, c1, nil); err == nil {
		t.Error("nil association should fail")
	}
	if _, err := d.Connect(nil, c1, a); err == nil {
		t.Error("nil end should fail")
	}
}

func TestRedundantLinksBetweenSamePair(t *testing.T) {
	// The paper's core switches have redundant connections: two parallel
	// links between the same pair require two distinct associations.
	m, d := diagramFixture(t)
	sw := m.MustClass("C6500")
	ss, _ := m.Association("C6500-C6500")
	ss2, err := m.AddAssociation("C6500-C6500-backup", sw, sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ConnectByName("c1", "c2", ss); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ConnectByName("c1", "c2", ss2); err != nil {
		t.Fatal(err)
	}
	if got := len(d.LinksBetween("c1", "c2")); got != 2 {
		t.Errorf("LinksBetween = %d links, want 2", got)
	}
	if got := len(d.LinksBetween("c2", "c1")); got != 2 {
		t.Errorf("LinksBetween reversed = %d links, want 2", got)
	}
}

func TestLinkAccessors(t *testing.T) {
	m, d := diagramFixture(t)
	a, _ := m.Association("Comp-C6500")
	l, err := d.ConnectByName("t1", "c1", a)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := l.Property("MTBF"); !ok || v.AsReal() != 1000000 {
		t.Errorf("link MTBF = %v, %v", v, ok)
	}
	if l.Association() != a {
		t.Error("Association mismatch")
	}
	if l.Signature() != "t1--c1 (Comp-C6500)" {
		t.Errorf("Signature = %q", l.Signature())
	}
}

func TestDiagramTopologyQueries(t *testing.T) {
	m, d := diagramFixture(t)
	a, _ := m.Association("Comp-C6500")
	ss, _ := m.Association("C6500-C6500")
	mustConnect := func(x, y string, as *Association) {
		t.Helper()
		if _, err := d.ConnectByName(x, y, as); err != nil {
			t.Fatal(err)
		}
	}
	mustConnect("t1", "c1", a)
	mustConnect("t2", "c2", a)
	mustConnect("c1", "c2", ss)
	if d.NumInstances() != 4 || d.NumLinks() != 3 {
		t.Errorf("counts = %d instances, %d links", d.NumInstances(), d.NumLinks())
	}
	insts := d.Instances()
	if len(insts) != 4 || insts[0].Name() != "t1" {
		t.Errorf("Instances (insertion order) = %v", insts)
	}
	if got, ok := m.Diagram("infra"); !ok || got != d {
		t.Error("Diagram lookup failed")
	}
	if _, ok := m.Diagram("nope"); ok {
		t.Error("unknown diagram should be absent")
	}
	if len(m.Diagrams()) != 1 {
		t.Error("Diagrams should list one diagram")
	}
}

// TestDetachedDiagram: a detached diagram instantiates the model's classes
// but stays out of the model (lookup and encoding) until AttachDiagram
// lists it; attaching rejects a taken name and another model's diagram.
func TestDetachedDiagram(t *testing.T) {
	m, d := diagramFixture(t)
	comp, _ := d.Instance("t1")
	out := m.NewDetachedDiagram("upsim")
	if _, err := out.AddInstance("t1", comp.Classifier()); err != nil {
		t.Fatal(err)
	}
	var before strings.Builder
	if err := Encode(&before, m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Diagram("upsim"); ok || len(m.Diagrams()) != 1 || strings.Contains(before.String(), "upsim") {
		t.Fatal("a detached diagram is listed in the model")
	}
	if err := m.AttachDiagram(out); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Diagram("upsim"); !ok || got != out {
		t.Fatal("AttachDiagram did not list the diagram")
	}
	if err := m.AttachDiagram(out); err == nil || !strings.Contains(err.Error(), `already has an object diagram named "upsim"`) {
		t.Errorf("re-attach: %v", err)
	}
	if err := m.AttachDiagram(m.NewDetachedDiagram("infra")); err == nil {
		t.Error("attaching over the infrastructure diagram's name succeeded")
	}
	other, _ := diagramFixture(t)
	if err := other.AttachDiagram(m.NewDetachedDiagram("x")); err == nil || !strings.Contains(err.Error(), "belongs to another model") {
		t.Errorf("attaching another model's diagram: %v", err)
	}
	if len(other.Diagrams()) != 1 || len(m.Diagrams()) != 2 {
		t.Errorf("diagrams = %d and %d after rejected attaches, want 1 and 2", len(other.Diagrams()), len(m.Diagrams()))
	}
}
