package rbdgen

import (
	"math"
	"strings"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/vpm"
)

// generated runs the case-study pipeline and returns generator + result +
// device availability table.
func generated(t *testing.T) (*core.Generator, *core.Result, map[string]float64) {
	t.Helper()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := casestudy.PrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(m, casestudy.DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, casestudy.TableIMapping(), "u", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	avail := map[string]float64{}
	for _, inst := range res.Source.Instances() {
		mtbf, _ := inst.Property("MTBF")
		mttr, _ := inst.Property("MTTR")
		a, err := depend.Availability(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			t.Fatal(err)
		}
		avail[inst.Name()] = a
	}
	return gen, res, avail
}

// spaceOf is the generator's model space, built on first use.
func spaceOf(t *testing.T, gen *core.Generator) *vpm.ModelSpace {
	t.Helper()
	s, err := gen.Space()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTransform(t *testing.T) {
	gen, res, avail := generated(t)
	root, err := Transform(spaceOf(t, gen), "u", avail)
	if err != nil {
		t.Fatal(err)
	}
	if root.Value() != KindSeries {
		t.Errorf("root kind = %q", root.Value())
	}
	// One parallel block per atomic service.
	if got := len(root.Children()); got != 5 {
		t.Fatalf("atomic blocks = %d, want 5", got)
	}
	first, ok := root.Child("Request printing")
	if !ok || first.Value() != KindParallel {
		t.Fatalf("Request printing block missing or wrong kind")
	}
	// Two redundant paths under it.
	paths, _ := res.PathsFor("Request printing")
	if len(first.Children()) != len(paths) {
		t.Errorf("series blocks = %d, want %d", len(first.Children()), len(paths))
	}
	p0, ok := first.Child("p0")
	if !ok || p0.Value() != KindSeries {
		t.Fatal("p0 series missing")
	}
	// Path components as basic blocks, in path order.
	kids := p0.Children()
	if len(kids) != len(paths[0].Nodes) {
		t.Fatalf("basic blocks = %d, want %d", len(kids), len(paths[0].Nodes))
	}
	for i, c := range kids {
		if c.Name() != paths[0].Nodes[i] {
			t.Errorf("basic[%d] = %s, want %s", i, c.Name(), paths[0].Nodes[i])
		}
	}
	// Provenance relation back to the stored path store.
	derived := spaceOf(t, gen).RelationsFrom(first, "derivedFrom")
	if len(derived) != 1 || derived[0].To().FQN() != "paths.u.Request printing" {
		t.Errorf("derivedFrom = %v", derived)
	}
	// Regenerating is rejected.
	if _, err := Transform(spaceOf(t, gen), "u", avail); err == nil {
		t.Error("duplicate transform should fail")
	}
}

func TestToBlockEvaluates(t *testing.T) {
	gen, res, avail := generated(t)
	root, err := Transform(spaceOf(t, gen), "u", avail)
	if err != nil {
		t.Fatal(err)
	}
	block, err := ToBlock(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := block.Availability()
	if err != nil {
		t.Fatal(err)
	}
	// The RBD-model evaluation must equal depend's device-only naive RBD:
	// rebuild the same structure through the analysis pipeline restricted
	// to devices.
	st := &depend.ServiceStructure{}
	for _, sp := range res.Services {
		a := depend.AtomicStructure{Name: sp.AtomicService}
		for _, p := range sp.Paths {
			a.PathSets = append(a.PathSets, depend.PathSet(p.Nodes))
		}
		st.AtomicServices = append(st.AtomicServices, a)
	}
	want, err := st.RBDApprox(avail)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RBD model evaluation = %v, depend RBD = %v", got, want)
	}
	if got <= 0 || got > 1 {
		t.Errorf("availability out of range: %v", got)
	}
}

func TestRender(t *testing.T) {
	gen, _, avail := generated(t)
	root, err := Transform(spaceOf(t, gen), "u", avail)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(root)
	for _, want := range []string{"u [series]", "Request printing [parallel]", "p0 [series]", "t1 (A="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTransformErrors(t *testing.T) {
	if _, err := Transform(nil, "x", nil); err == nil {
		t.Error("nil space should fail")
	}
	s := vpm.NewSpace()
	if _, err := Transform(s, "ghost", nil); err == nil {
		t.Error("missing path store should fail")
	}
	// Missing availability for a component aborts and leaves no residue.
	gen, _, avail := generated(t)
	delete(avail, "t1")
	if _, err := Transform(spaceOf(t, gen), "u", avail); err == nil || !strings.Contains(err.Error(), "t1") {
		t.Errorf("missing availability error = %v", err)
	}
	if _, ok := spaceOf(t, gen).Lookup(RootFQN("u")); ok {
		t.Error("failed transform left residue")
	}
	// Empty path store.
	empty := vpm.NewSpace()
	if _, err := empty.EnsureEntity("paths.e"); err != nil {
		t.Fatal(err)
	}
	if _, err := Transform(empty, "e", nil); err == nil {
		t.Error("empty path store should fail")
	}
}

func TestToBlockErrors(t *testing.T) {
	if _, err := ToBlock(nil); err == nil {
		t.Error("nil root should fail")
	}
	s := vpm.NewSpace()
	e, _ := s.EnsureEntity("rbd.broken")
	e.SetValue(KindSeries)
	if _, err := ToBlock(e); err == nil {
		t.Error("empty series should fail")
	}
	p, _ := s.NewEntity(e, "par")
	p.SetValue(KindParallel)
	if _, err := ToBlock(e); err == nil {
		t.Error("empty parallel should fail")
	}
	bad, _ := s.NewEntity(p, "basic")
	bad.SetValue("not-a-number")
	if _, err := ToBlock(e); err == nil {
		t.Error("unparsable basic availability should fail")
	}
}
