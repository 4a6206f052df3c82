package importers

import (
	"fmt"
	"strings"
	"testing"

	"upsim/internal/mapping"
	"upsim/internal/uml"
	"upsim/internal/vpm"
)

// fixtureModel builds a small but complete UML model: availability profile,
// two classes, one association, one diagram with three instances and two
// links, and one two-action activity.
func fixtureModel(t *testing.T) *uml.Model {
	t.Helper()
	m := uml.NewModel("campus")
	p := uml.NewProfile("availability")
	comp, err := p.DefineAbstractStereotype("Component", uml.MetaclassNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.AddAttribute("MTBF", uml.KindReal); err != nil {
		t.Fatal(err)
	}
	if err := comp.AddAttribute("MTTR", uml.KindReal); err != nil {
		t.Fatal(err)
	}
	dev, err := p.DefineSubStereotype("Device", uml.MetaclassClass, comp)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := p.DefineSubStereotype("Connector", uml.MetaclassAssociation, comp)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddProfile(p); err != nil {
		t.Fatal(err)
	}

	cls, _ := m.AddClass("Comp")
	app, _ := cls.Apply(dev)
	_ = app.Set("MTBF", uml.RealValue(3000))
	_ = app.Set("MTTR", uml.RealValue(24))
	srv, _ := m.AddClass("Server")
	app2, _ := srv.Apply(dev)
	_ = app2.Set("MTBF", uml.RealValue(60000))
	_ = app2.Set("MTTR", uml.RealValue(0.1))
	a, _ := m.AddAssociation("Comp-Server", cls, srv)
	capp, _ := a.Apply(conn)
	_ = capp.Set("MTBF", uml.RealValue(1e6))
	_ = capp.Set("MTTR", uml.RealValue(0.1))

	d := m.NewObjectDiagram("infrastructure")
	t1, _ := d.AddInstance("t1", cls)
	t2, _ := d.AddInstance("t2", cls)
	printS, _ := d.AddInstance("printS", srv)
	if _, err := d.Connect(t1, printS, a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Connect(t2, printS, a); err != nil {
		t.Fatal(err)
	}

	act, _ := m.NewActivity("printing")
	a1, _ := act.AddAction("Request printing")
	a2, _ := act.AddAction("Send documents")
	fin := act.AddFinal()
	_ = act.Flow(act.Initial(), a1)
	_ = act.Flow(a1, a2)
	_ = act.Flow(a2, fin)
	return m
}

func importFixture(t *testing.T) (*vpm.ModelSpace, *uml.Model) {
	t.Helper()
	s := vpm.NewSpace()
	im, err := NewUMLImporter(s)
	if err != nil {
		t.Fatal(err)
	}
	m := fixtureModel(t)
	if err := im.Import(m); err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestUMLImportEntities(t *testing.T) {
	s, _ := importFixture(t)

	// Metamodel present.
	for _, meta := range []string{MetaClass, MetaAssociation, MetaInstance, MetaActivity, MetaAction} {
		if _, ok := s.Lookup(NSUMLMetamodel + "." + meta); !ok {
			t.Errorf("metamodel entity %s missing", meta)
		}
	}

	// Classes typed and attributes materialised with values.
	ce, ok := s.Lookup(ClassFQN("campus", "Comp"))
	if !ok {
		t.Fatal("class entity missing")
	}
	if !ce.IsInstanceOf(NSUMLMetamodel + "." + MetaClass) {
		t.Error("class not typed by metamodel")
	}
	mtbf, ok := ce.Child("MTBF")
	if !ok || mtbf.Value() != "3000" {
		t.Errorf("Comp MTBF entity = %v", mtbf)
	}
	if !mtbf.IsInstanceOf(NSUMLMetamodel + "." + MetaAttribute) {
		t.Error("attribute not typed")
	}

	// Stereotype relations.
	sts := s.RelationsFrom(ce, RelStereotype)
	if len(sts) != 1 || !leadsTo(sts[0], ce, "Device") {
		t.Errorf("class stereotype relations = %v", sts)
	}

	// Association entity with ends.
	ae, ok := s.Lookup("models.campus.associations.Comp-Server")
	if !ok {
		t.Fatal("association entity missing")
	}
	endA := s.RelationsFrom(ae, RelEndA)
	endB := s.RelationsFrom(ae, RelEndB)
	if len(endA) != 1 || !leadsTo(endA[0], ae, "Comp") {
		t.Errorf("endA = %v", endA)
	}
	if len(endB) != 1 || !leadsTo(endB[0], ae, "Server") {
		t.Errorf("endB = %v", endB)
	}
	if att, ok := ae.Child("MTBF"); !ok || att.Value() != "1e+06" {
		t.Errorf("association MTBF = %v (%v)", att.Value(), ok)
	}

	// Instances with classifier relations and links.
	ie, ok := s.Lookup(InstanceFQN("campus", "infrastructure", "t1"))
	if !ok {
		t.Fatal("instance entity missing")
	}
	cls := s.RelationsFrom(ie, RelClassifier)
	if len(cls) != 1 || cls[0].String() != fmt.Sprintf("%s -%s-> %s", ie, RelClassifier, ce) {
		t.Errorf("classifier = %v", cls)
	}
	links := s.RelationsFrom(ie, RelLink)
	if len(links) != 1 || !strings.HasSuffix(links[0].String(), ` = "Comp-Server"`) {
		t.Errorf("links of t1 = %v", links)
	}

	// Activity nodes: one entity per node, actions by name, flows wired.
	actFQN := ActivityFQN("campus", "printing")
	ae2, ok := s.Lookup(actFQN)
	if !ok {
		t.Fatal("activity entity missing")
	}
	if !ae2.IsInstanceOf(NSUMLMetamodel + "." + MetaActivity) {
		t.Error("activity not typed")
	}
	action, ok := s.Lookup(actFQN + ".Request printing")
	if !ok {
		t.Fatal("action entity missing")
	}
	flows := s.RelationsFrom(action, RelFlow)
	if len(flows) != 1 || !leadsTo(flows[0], action, "Send documents") {
		t.Errorf("flows = %v", flows)
	}
	if _, ok := s.Lookup(actFQN + ".initial"); !ok {
		t.Error("initial node entity missing")
	}
	if _, ok := s.Lookup(actFQN + ".final1"); !ok {
		t.Error("final node entity missing")
	}
}

func TestUMLImportErrors(t *testing.T) {
	s := vpm.NewSpace()
	im, err := NewUMLImporter(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Import(nil); err == nil {
		t.Error("nil model should fail")
	}
	if err := im.Import(uml.NewModel("")); err == nil {
		t.Error("unnamed model should fail")
	}
	if err := im.Import(uml.NewModel("a.b")); err == nil {
		t.Error("dotted model name should fail")
	}
	m := fixtureModel(t)
	if err := im.Import(m); err != nil {
		t.Fatal(err)
	}
	if err := im.Import(m); err == nil {
		t.Error("double import should fail")
	}
	if _, err := NewUMLImporter(nil); err == nil {
		t.Error("nil space should fail")
	}
}

func TestUMLImportUnregisteredProfile(t *testing.T) {
	// A stereotype applied from a profile that is not registered with the
	// model cannot be resolved to an entity.
	m := uml.NewModel("loose")
	p := uml.NewProfile("other")
	st, _ := p.DefineStereotype("Tag", uml.MetaclassClass)
	c, _ := m.AddClass("C")
	if _, err := c.Apply(st); err != nil {
		t.Fatal(err)
	}
	s := vpm.NewSpace()
	im, _ := NewUMLImporter(s)
	if err := im.Import(m); err == nil || !strings.Contains(err.Error(), "unregistered profile") {
		t.Errorf("expected unregistered-profile error, got %v", err)
	}
}

func tableIMapping(t *testing.T) *mapping.Mapping {
	t.Helper()
	mp := mapping.New()
	for _, p := range []mapping.Pair{
		{AtomicService: "Request printing", Requester: "t1", Provider: "printS"},
		{AtomicService: "Send documents", Requester: "printS", Provider: "t1"},
	} {
		if err := mp.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return mp
}

func TestMappingImport(t *testing.T) {
	s, _ := importFixture(t)
	mi, err := NewMappingImporter(s)
	if err != nil {
		t.Fatal(err)
	}
	mp := tableIMapping(t)
	diagram := DiagramFQN("campus", "infrastructure")
	if err := mi.Import("printing-t1", mp, diagram); err != nil {
		t.Fatal(err)
	}
	pe, ok := s.Lookup(PairFQN("printing-t1", "Request printing"))
	if !ok {
		t.Fatal("pair entity missing")
	}
	if !pe.IsInstanceOf(NSMappingMetamodel + "." + MetaPair) {
		t.Error("pair not typed by mapping metamodel")
	}
	reqs, provs := s.RelationsFrom(pe, RelRequester), s.RelationsFrom(pe, RelProvider)
	if len(reqs) != 1 || len(provs) != 1 {
		t.Fatalf("pair has %d requesters, %d providers", len(reqs), len(provs))
	}
	if !leadsTo(reqs[0], pe, "t1") || !leadsTo(provs[0], pe, "printS") {
		t.Errorf("resolved pair = %s, %s", reqs[0], provs[0])
	}
	if got, want := reqs[0].String(), fmt.Sprintf("%s -%s-> %s", pe, RelRequester, InstanceFQN("campus", "infrastructure", "t1")); got != want {
		t.Errorf("requester relation = %s, want %s", got, want)
	}
}

func TestMappingImportErrors(t *testing.T) {
	s, _ := importFixture(t)
	mi, _ := NewMappingImporter(s)
	diagram := DiagramFQN("campus", "infrastructure")

	if err := mi.Import("x", nil, diagram); err == nil {
		t.Error("nil mapping should fail")
	}
	if err := mi.Import("", tableIMapping(t), diagram); err == nil {
		t.Error("empty name should fail")
	}
	if err := mi.Import("a.b", tableIMapping(t), diagram); err == nil {
		t.Error("dotted name should fail")
	}
	if err := mi.Import("x", tableIMapping(t), "models.ghost.diagrams.d"); err == nil {
		t.Error("missing diagram should fail")
	}

	// Dangling component reference: import must fail and leave no residue.
	bad := mapping.New()
	_ = bad.Add(mapping.Pair{AtomicService: "s", Requester: "ghost", Provider: "printS"})
	err := mi.Import("dangling", bad, diagram)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("dangling requester error = %v", err)
	}
	if _, ok := s.Lookup(NSMappings + ".dangling"); ok {
		t.Error("failed import left residue in model space")
	}
	bad2 := mapping.New()
	_ = bad2.Add(mapping.Pair{AtomicService: "s", Requester: "t1", Provider: "ghost"})
	if err := mi.Import("dangling2", bad2, diagram); err == nil {
		t.Error("dangling provider should fail")
	}

	// Duplicate mapping name.
	if err := mi.Import("dup", tableIMapping(t), diagram); err != nil {
		t.Fatal(err)
	}
	if err := mi.Import("dup", tableIMapping(t), diagram); err == nil {
		t.Error("duplicate mapping name should fail")
	}
	if _, err := NewMappingImporter(nil); err == nil {
		t.Error("nil space should fail")
	}
}

// Check reports the error UMLImporter.Import would return for m into a
// fresh model space, with the same text, without building the space. A nil
// result means Import would succeed, so a caller can validate Step 5 up
// front and import only when someone reads the space.
func Check(m *uml.Model) error { return CheckView(ViewOf(m)) }

// Import materialises the model under models.<model name>. Importing two
// models with the same name is an error.
func (im *UMLImporter) Import(m *uml.Model) error {
	return im.ImportView(ViewOf(m))
}

// InstanceFQN returns the model-space FQN of an instance specification
// imported from the named model and diagram.
func InstanceFQN(model, diagram, instance string) string {
	return NSModels + "." + model + ".diagrams." + diagram + "." + instance
}

// ClassFQN returns the model-space FQN of an imported class.
func ClassFQN(model, class string) string {
	return NSModels + "." + model + ".classes." + class
}

// ActivityFQN returns the model-space FQN of an imported activity.
func ActivityFQN(model, activity string) string {
	return NSModels + "." + model + ".activities." + activity
}

// Import materialises the mapping under mappings.<name>, resolving component
// ids against the instances of the object diagram at diagramFQN (see
// DiagramFQN). Import is atomic: on error, no partial mapping remains in the
// space.
func (im *MappingImporter) Import(name string, m *mapping.Mapping, diagramFQN string) error {
	if m == nil {
		return fmt.Errorf("importers: nil mapping")
	}
	return im.ImportPairs(name, m.Pairs(), diagramFQN)
}

// PairFQN returns the model-space FQN of an imported service mapping pair.
func PairFQN(mappingName, atomicService string) string {
	return NSMappings + "." + mappingName + "." + atomicService
}

// leadsTo reports whether r runs from `from` to an entity named to and
// carries no payload: r renders as "<from FQN> -<name>-> <to FQN>", and
// entity names hold no FQN separator.
func leadsTo(r *vpm.Relation, from *vpm.Entity, to string) bool {
	s := r.String()
	return strings.HasPrefix(s, from.String()+" -") && strings.HasSuffix(s, "."+to)
}
