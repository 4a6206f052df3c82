package importers_test

import (
	"fmt"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/importers"
	"upsim/internal/mapping"
	"upsim/internal/uml"
	"upsim/internal/vpm"
)

// mutation changes a model with one name; a uml error leaves the model as
// it got, which is as good an input as any.
type mutation struct {
	what string
	do   func(m *uml.Model, name string)
}

func firstClass(m *uml.Model) *uml.Class { return m.Classes()[0] }

// applyNew defines a stereotype in the model's first registered profile
// whose one attribute, with a default, is called attr, and applies it.
func applyNew(m *uml.Model, ext uml.Metaclass, attr string, apply func(*uml.Stereotype)) {
	p := m.Profiles()[0]
	st, err := p.DefineStereotype(fmt.Sprintf("Fz%d", len(p.Stereotypes())), ext)
	if err != nil {
		return
	}
	_ = st.AddAttributeDefault(attr, uml.KindString, uml.StringValue("v"))
	apply(st)
}

// mutations covers every element kind Import materialises, each given a
// caller-chosen name, plus stereotypes from unregistered profiles.
var mutations = []mutation{
	{"class", func(m *uml.Model, n string) { _, _ = m.AddClass(n) }},
	{"class property", func(m *uml.Model, n string) { _ = firstClass(m).SetProperty(n, uml.StringValue("v")) }},
	{"profile", func(m *uml.Model, n string) { _ = m.AddProfile(uml.NewProfile(n)) }},
	{"stereotype", func(m *uml.Model, n string) { _, _ = m.Profiles()[0].DefineStereotype(n, uml.MetaclassClass) }},
	{"class stereotype attribute", func(m *uml.Model, n string) {
		applyNew(m, uml.MetaclassClass, n, func(st *uml.Stereotype) { _, _ = firstClass(m).Apply(st) })
	}},
	{"association stereotype attribute", func(m *uml.Model, n string) {
		applyNew(m, uml.MetaclassAssociation, n, func(st *uml.Stereotype) { _, _ = m.Associations()[0].Apply(st) })
	}},
	{"unregistered class stereotype", func(m *uml.Model, n string) {
		if st, err := uml.NewProfile("ghost").DefineStereotype(n, uml.MetaclassClass); err == nil {
			_, _ = firstClass(m).Apply(st)
		}
	}},
	{"unregistered association stereotype", func(m *uml.Model, n string) {
		if st, err := uml.NewProfile("ghost").DefineStereotype(n, uml.MetaclassAssociation); err == nil {
			_, _ = m.Associations()[0].Apply(st)
		}
	}},
	{"association", func(m *uml.Model, n string) {
		cs := m.Classes()
		_, _ = m.AddAssociation(n, cs[0], cs[1])
	}},
	{"diagram", func(m *uml.Model, n string) { m.NewObjectDiagram(n) }},
	{"instance", func(m *uml.Model, n string) {
		d, _ := m.Diagram(casestudy.DiagramName)
		_, _ = d.AddInstance(n, firstClass(m))
	}},
	{"activity", func(m *uml.Model, n string) { _, _ = m.NewActivity(n) }},
	{"action", func(m *uml.Model, n string) { _, _ = m.Activities()[0].AddAction(n) }},
	{"action before control nodes", func(m *uml.Model, n string) {
		act, ok := m.Activity("fz")
		if !ok {
			act, _ = m.NewActivity("fz")
		}
		_, _ = act.AddAction(n)
		act.AddFinal()
		act.AddFork()
		act.AddJoin()
	}},
}

func usi(t testing.TB) *uml.Model {
	t.Helper()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := casestudy.PrintingService(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// importErr is the error of importing m into a fresh model space.
func importErr(t testing.TB, m *uml.Model) error {
	t.Helper()
	im, err := importers.NewUMLImporter(vpm.NewSpace())
	if err != nil {
		t.Fatal(err)
	}
	return im.Import(m)
}

func requireAgree(t testing.TB, m *uml.Model) error {
	t.Helper()
	got, want := importers.Check(m), importErr(t, m)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("Check = %v, Import = %v", got, want)
	}
	return got
}

func TestCheckAgreesWithImport(t *testing.T) {
	if err := requireAgree(t, usi(t)); err != nil {
		t.Fatalf("the case study fails the check: %v", err)
	}
	for _, mu := range mutations {
		for _, name := range []string{"dotted.name", "", "plain"} {
			t.Run(mu.what+"/"+name, func(t *testing.T) {
				m := usi(t)
				mu.do(m, name)
				requireAgree(t, m)
			})
		}
	}
	// Names Import derives for control nodes, taken by actions.
	for _, name := range []string{"initial", "final1", "final2", "final01", "final+1", "fork1", "join1", "join"} {
		for _, mu := range mutations[len(mutations)-2:] {
			t.Run(mu.what+"/"+name, func(t *testing.T) {
				m := usi(t)
				mu.do(m, name)
				requireAgree(t, m)
			})
		}
	}
	for _, name := range []string{"", "dotted.model", "m"} {
		t.Run("model/"+name, func(t *testing.T) { requireAgree(t, uml.NewModel(name)) })
	}
	t.Run("duplicate diagram", func(t *testing.T) {
		m := usi(t)
		m.NewObjectDiagram(casestudy.DiagramName)
		if err := requireAgree(t, m); err == nil {
			t.Fatal("a second diagram of the same name passes the check")
		}
	})
	t.Run("first error wins", func(t *testing.T) {
		m := usi(t)
		mutations[len(mutations)-3].do(m, "late.action") // activities import last
		mutations[0].do(m, "early.class")
		if err := requireAgree(t, m); err == nil || err.Error() != `vpm: entity name "early.class" contains FQN separator` {
			t.Fatalf("Check = %v, want the class error", err)
		}
	})
}

func FuzzCheckAgreesWithImport(f *testing.F) {
	for i := range mutations {
		for _, name := range []string{"dotted.name", "", "initial", "final1", "fork1"} {
			f.Add(uint8(i), name, uint8(0), "ok")
		}
	}
	f.Add(uint8(12), "a.b", uint8(0), "c.d")
	f.Fuzz(func(t *testing.T, op1 uint8, name1 string, op2 uint8, name2 string) {
		m := usi(t)
		mutations[int(op1)%len(mutations)].do(m, name1)
		mutations[int(op2)%len(mutations)].do(m, name2)
		requireAgree(t, m)
	})
}

func TestCheckPairsAgreesWithImportPairs(t *testing.T) {
	m := usi(t)
	d, _ := m.Diagram(casestudy.DiagramName)
	fqn := importers.DiagramFQN(m.Name(), casestudy.DiagramName)
	good := casestudy.TableIMapping().Pairs()
	with := func(p mapping.Pair) []mapping.Pair { return append(append([]mapping.Pair(nil), good...), p) }
	for _, c := range []struct {
		what, name string
		pairs      []mapping.Pair
	}{
		{"table I", "m-1", good},
		{"dotted mapping name", "m.x-1", good},
		{"empty mapping name", "", good},
		{"unknown requester", "m-1", with(mapping.Pair{AtomicService: "x", Requester: "ghost", Provider: "printS"})},
		{"unknown provider", "m-1", with(mapping.Pair{AtomicService: "x", Requester: "t1", Provider: "ghost"})},
		{"dotted atomic service", "m-1", with(mapping.Pair{AtomicService: "x.y", Requester: "ghost", Provider: "printS"})},
	} {
		t.Run(c.what, func(t *testing.T) {
			s := vpm.NewSpace()
			im, _ := importers.NewUMLImporter(s)
			if err := im.Import(m); err != nil {
				t.Fatal(err)
			}
			mi, _ := importers.NewMappingImporter(s)
			got, want := importers.CheckPairs(c.name, c.pairs, d, fqn), mi.ImportPairs(c.name, c.pairs, fqn)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("CheckPairs = %v, ImportPairs = %v", got, want)
			}
		})
	}
}
