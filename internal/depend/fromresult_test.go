package depend

import (
	"math"
	"strings"
	"testing"

	"upsim/internal/core"
	"upsim/internal/mapping"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// analysisFixture builds a diamond network t1 — sw — {c1|c2} — srv with the
// availability profile applied, generates the UPSIM for a two-service
// composite mapped t1→srv / srv→t1, and returns the generation result.
func analysisFixture(t *testing.T, connectorMTBF float64) *core.Result {
	t.Helper()
	m := uml.NewModel("net")
	p := uml.NewProfile("availability")
	comp, _ := p.DefineAbstractStereotype("Component", uml.MetaclassNone)
	_ = comp.AddAttribute("MTBF", uml.KindReal)
	_ = comp.AddAttribute("MTTR", uml.KindReal)
	dev, _ := p.DefineSubStereotype("Device", uml.MetaclassClass, comp)
	conn, _ := p.DefineSubStereotype("Connector", uml.MetaclassAssociation, comp)
	if err := m.AddProfile(p); err != nil {
		t.Fatal(err)
	}
	addClass := func(name string, mtbf, mttr float64) *uml.Class {
		c, _ := m.AddClass(name)
		app, err := c.Apply(dev)
		if err != nil {
			t.Fatal(err)
		}
		_ = app.Set("MTBF", uml.RealValue(mtbf))
		_ = app.Set("MTTR", uml.RealValue(mttr))
		return c
	}
	client := addClass("Client", 3000, 24)
	sw := addClass("Switch", 180000, 0.5)
	srv := addClass("Server", 60000, 0.1)
	addAssoc := func(name string, a, b *uml.Class) *uml.Association {
		as, _ := m.AddAssociation(name, a, b)
		app, err := as.Apply(conn)
		if err != nil {
			t.Fatal(err)
		}
		_ = app.Set("MTBF", uml.RealValue(connectorMTBF))
		_ = app.Set("MTTR", uml.RealValue(0.1))
		return as
	}
	cs := addAssoc("Client-Switch", client, sw)
	ss := addAssoc("Switch-Switch", sw, sw)
	sv := addAssoc("Switch-Server", sw, srv)

	d := m.NewObjectDiagram("infrastructure")
	for _, spec := range []struct {
		name string
		cls  *uml.Class
	}{
		{"t1", client}, {"sw", sw}, {"c1", sw}, {"c2", sw}, {"sw2", sw}, {"srv", srv},
	} {
		if _, err := d.AddInstance(spec.name, spec.cls); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct {
		a, b string
		as   *uml.Association
	}{
		{"t1", "sw", cs}, {"sw", "c1", ss}, {"sw", "c2", ss},
		{"c1", "sw2", ss}, {"c2", "sw2", ss}, {"sw2", "srv", sv},
	} {
		if _, err := d.ConnectByName(l.a, l.b, l.as); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := service.NewSequential(m, "print", "fetch", "deliver")
	if err != nil {
		t.Fatal(err)
	}
	mp := mapping.New()
	_ = mp.Add(mapping.Pair{AtomicService: "fetch", Requester: "t1", Provider: "srv"})
	_ = mp.Add(mapping.Pair{AtomicService: "deliver", Requester: "srv", Provider: "t1"})
	g, err := core.NewGenerator(m, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Generate(svc, mp, "upsim", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFromResult(t *testing.T) {
	res := analysisFixture(t, 1e6)
	st, _, avail, err := FromResult(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.AtomicServices) != 2 {
		t.Fatalf("atomics = %d", len(st.AtomicServices))
	}
	// Each atomic service has the two redundant core paths.
	for _, a := range st.AtomicServices {
		if len(a.PathSets) != 2 {
			t.Errorf("atomic %s path sets = %d, want 2", a.Name, len(a.PathSets))
		}
		for _, ps := range a.PathSets {
			// 5 devices + 4 links per path.
			if len(ps) != 9 {
				t.Errorf("path set size = %d, want 9 (%v)", len(ps), ps)
			}
		}
	}
	// Device availabilities computed from class attributes.
	wantT1, _ := Availability(3000, 24)
	if math.Abs(avail["t1"]-wantT1) > 1e-12 {
		t.Errorf("avail[t1] = %v, want %v", avail["t1"], wantT1)
	}
	// Link components present with the synthetic ID scheme, and exactly one
	// component per physical link even though "deliver" traverses every
	// edge in the opposite direction of "fetch".
	links := 0
	for c := range avail {
		if strings.Contains(c, "--") && strings.Contains(c, "#") {
			links++
		}
	}
	if links != 6 {
		t.Errorf("link components = %d, want 6 (one per traversed physical link)", links)
	}
	seen := map[string]bool{}
	for _, a := range st.AtomicServices {
		for _, ps := range a.PathSets {
			for _, c := range ps {
				if !strings.Contains(c, "#") {
					continue
				}
				ends := strings.SplitN(strings.SplitN(c, "#", 2)[0], "--", 2)
				if len(ends) == 2 && ends[1] < ends[0] {
					t.Errorf("link component %q not canonically ordered", c)
				}
				seen[c] = true
			}
		}
	}
	if len(seen) != 6 {
		t.Errorf("distinct link components = %d, want 6", len(seen))
	}
}

// TestFromResultSlabs: every path set is the path's devices then its
// LinkComponentIDs, each set and each atomic service's set list is capped
// at its own length (an append never reaches a neighbour in the shared
// slab), the availability table holds exactly the components, and the
// compiled minimal cut sets come back capped the same way.
func TestFromResultSlabs(t *testing.T) {
	res := analysisFixture(t, 1e6)
	st, cs, avail, err := FromResult(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	for k, sp := range res.Services {
		a := st.AtomicServices[k]
		if a.Name != sp.AtomicService || len(a.PathSets) != len(sp.Paths) || cap(a.PathSets) != len(a.PathSets) {
			t.Fatalf("atomic %d = %s with %d sets (cap %d), want %s with %d",
				k, a.Name, len(a.PathSets), cap(a.PathSets), sp.AtomicService, len(sp.Paths))
		}
		for i, p := range sp.Paths {
			want := append(PathSet(nil), p.Nodes...)
			for j, id := range p.Edges {
				want = append(want, LinkComponentID(p.Nodes[j], p.Nodes[j+1], id))
			}
			got := a.PathSets[i]
			if strings.Join(got, " ") != strings.Join(want, " ") || cap(got) != len(got) {
				t.Errorf("%s path %d = %v (cap %d), want %v", a.Name, i, got, cap(got), want)
			}
		}
	}
	if got, want := componentNames(avail), st.Components(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("availability table keys %v, want the components %v", got, want)
	}
	cuts, err := cs.MinimalCutSets(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cuts {
		if cap(c) != len(c) {
			t.Errorf("cut set %d %v has cap %d", i, c, cap(c))
		}
	}
}

func TestFromResultFormula1(t *testing.T) {
	res := analysisFixture(t, 1e6)
	_, _, exact, err := FromResult(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	_, _, f1, err := FromResult(res, ModelFormula1)
	if err != nil {
		t.Fatal(err)
	}
	for c := range exact {
		if f1[c] > exact[c] {
			t.Errorf("Formula 1 availability of %s (%v) exceeds exact (%v)", c, f1[c], exact[c])
		}
	}
	if ModelExact.String() != "exact" || ModelFormula1.String() != "formula1" {
		t.Error("model names wrong")
	}
	if !strings.Contains(AvailabilityModel(7).String(), "AvailabilityModel(") {
		t.Error("unknown model fallback")
	}
}

func TestAnalyze(t *testing.T) {
	res := analysisFixture(t, 1e6)
	rep, err := Analyze(res, ModelExact, 100000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exact <= 0 || rep.Exact > 1 {
		t.Errorf("exact = %v", rep.Exact)
	}
	// Client availability dominates: the service can never be more
	// available than t1 itself (~0.992).
	t1A, _ := Availability(3000, 24)
	if rep.Exact > t1A {
		t.Errorf("service availability %v exceeds client bound %v", rep.Exact, t1A)
	}
	// FT and RBD agree by duality; exact is bounded by the RBD.
	if math.Abs(rep.FTApprox-rep.RBDApprox) > 1e-12 {
		t.Errorf("FT (%v) != RBD (%v)", rep.FTApprox, rep.RBDApprox)
	}
	if rep.Exact > rep.RBDApprox+1e-12 {
		t.Errorf("exact (%v) above RBD (%v)", rep.Exact, rep.RBDApprox)
	}
	// Monte Carlo confirms the exact value.
	if math.Abs(rep.MonteCarlo-rep.Exact) > 5*rep.MCStdErr+1e-9 {
		t.Errorf("MC %v ± %v vs exact %v", rep.MonteCarlo, rep.MCStdErr, rep.Exact)
	}
	if rep.DowntimePerYearHours <= 0 {
		t.Errorf("downtime = %v", rep.DowntimePerYearHours)
	}
	// 5 devices + 6 links… the UPSIM uses 6 devices and 6 links; count
	// components referenced by paths.
	if rep.Components < 6 {
		t.Errorf("components = %d", rep.Components)
	}
}

func TestFromResultErrors(t *testing.T) {
	if _, _, _, err := FromResult(nil, ModelExact); err == nil {
		t.Error("nil result should fail")
	}
	if _, err := Analyze(nil, ModelExact, 10, 1); err == nil {
		t.Error("Analyze(nil) should fail")
	}
	// A model whose availability profile is missing attributes fails at
	// analysis time with a pointed error.
	m := uml.NewModel("bare")
	cls, _ := m.AddClass("C")
	a, _ := m.AddAssociation("C-C", cls, cls)
	d := m.NewObjectDiagram("infrastructure")
	_, _ = d.AddInstance("x", cls)
	_, _ = d.AddInstance("y", cls)
	_, _ = d.ConnectByName("x", "y", a)
	svc, err := service.NewSequential(m, "s", "a1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	mp := mapping.New()
	_ = mp.Add(mapping.Pair{AtomicService: "a1", Requester: "x", Provider: "y"})
	_ = mp.Add(mapping.Pair{AtomicService: "a2", Requester: "y", Provider: "x"})
	g, err := core.NewGenerator(m, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Generate(svc, mp, "u", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := FromResult(res, ModelExact); err == nil || !strings.Contains(err.Error(), "MTBF") {
		t.Errorf("missing profile error = %v", err)
	}
}
