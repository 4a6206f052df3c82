package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/mapping"
	"upsim/internal/modelgen"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/testutil"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

// fixture builds a diamond network:
//
//	t1 — sw1 — c1 — sw2 — srv      plus the redundant core c2:
//	           sw1 — c2 — sw2
//	iso (isolated client, for disconnection tests)
//
// and a two-service composite print := fetch;deliver with Table-I style
// mapping t1→srv, srv→t1.
type fixture struct {
	model *uml.Model
	svc   *service.Composite
	mp    *mapping.Mapping
}

func buildFixture(t *testing.T) *fixture {
	t.Helper()
	m := uml.NewModel("net")
	p := uml.NewProfile("availability")
	comp, _ := p.DefineAbstractStereotype("Component", uml.MetaclassNone)
	if err := comp.AddAttribute("MTBF", uml.KindReal); err != nil {
		t.Fatal(err)
	}
	if err := comp.AddAttribute("MTTR", uml.KindReal); err != nil {
		t.Fatal(err)
	}
	dev, _ := p.DefineSubStereotype("Device", uml.MetaclassClass, comp)
	conn, _ := p.DefineSubStereotype("Connector", uml.MetaclassAssociation, comp)
	if err := m.AddProfile(p); err != nil {
		t.Fatal(err)
	}
	addClass := func(name string, mtbf, mttr float64) *uml.Class {
		c, err := m.AddClass(name)
		if err != nil {
			t.Fatal(err)
		}
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
		as, err := m.AddAssociation(name, a, b)
		if err != nil {
			t.Fatal(err)
		}
		app, err := as.Apply(conn)
		if err != nil {
			t.Fatal(err)
		}
		_ = app.Set("MTBF", uml.RealValue(1e6))
		_ = app.Set("MTTR", uml.RealValue(0.1))
		return as
	}
	cs := addAssoc("Client-Switch", client, sw)
	ss := addAssoc("Switch-Switch", sw, sw)
	ss2 := addAssoc("Switch-Switch-2", sw, sw)
	sv := addAssoc("Switch-Server", sw, srv)

	d := m.NewObjectDiagram("infrastructure")
	mustInst := func(name string, c *uml.Class) {
		if _, err := d.AddInstance(name, c); err != nil {
			t.Fatal(err)
		}
	}
	mustInst("t1", client)
	mustInst("iso", client)
	for _, n := range []string{"sw1", "c1", "c2", "sw2"} {
		mustInst(n, sw)
	}
	mustInst("srv", srv)
	mustLink := func(a, b string, as *uml.Association) {
		if _, err := d.ConnectByName(a, b, as); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("t1", "sw1", cs)
	mustLink("sw1", "c1", ss)
	mustLink("sw1", "c2", ss)
	mustLink("c1", "sw2", ss)
	mustLink("c2", "sw2", ss)
	mustLink("c1", "c2", ss)  // core interconnect
	mustLink("c1", "c2", ss2) // redundant core interconnect
	mustLink("sw2", "srv", sv)

	svc, err := service.NewSequential(m, "print", "fetch", "deliver")
	if err != nil {
		t.Fatal(err)
	}
	mp := mapping.New()
	if err := mp.Add(mapping.Pair{AtomicService: "fetch", Requester: "t1", Provider: "srv"}); err != nil {
		t.Fatal(err)
	}
	if err := mp.Add(mapping.Pair{AtomicService: "deliver", Requester: "srv", Provider: "t1"}); err != nil {
		t.Fatal(err)
	}
	return &fixture{model: m, svc: svc, mp: mp}
}

func TestGenerateUPSIM(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Generate(f.svc, f.mp, "upsim-t1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The isolated client is filtered out; everything else participates.
	want := []string{"c1", "c2", "srv", "sw1", "sw2", "t1"}
	got := res.NodeNames()
	if len(got) != len(want) {
		t.Fatalf("UPSIM nodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if res.UPSIM.Name() != "upsim-t1" {
		t.Errorf("diagram name = %q", res.UPSIM.Name())
	}
	// Induced merge keeps all 8 infrastructure links except t1's isolated
	// peer (iso has no links anyway): both redundant core links survive.
	if res.Graph.NumEdges() != 8 {
		t.Errorf("UPSIM edges = %d, want 8", res.Graph.NumEdges())
	}
	// Both atomic services discovered paths; requester/provider recorded.
	if len(res.Services) != 2 || res.Services[0].AtomicService != "fetch" {
		t.Fatalf("services = %+v", res.Services)
	}
	if res.Services[0].Requester != "t1" || res.Services[0].Provider != "srv" {
		t.Errorf("pair = %s -> %s", res.Services[0].Requester, res.Services[0].Provider)
	}
	if res.TotalPaths == 0 || res.EdgeVisits == 0 {
		t.Error("stats not populated")
	}
	paths, ok := res.PathsFor("fetch")
	if !ok || len(paths) == 0 {
		t.Fatal("PathsFor(fetch) empty")
	}
	if _, ok := res.PathsFor("ghost"); ok {
		t.Error("PathsFor(ghost) should be absent")
	}
	// Every discovered path runs requester -> provider.
	for _, p := range paths {
		if p.Nodes[0] != "t1" || p.Nodes[len(p.Nodes)-1] != "srv" {
			t.Errorf("path %s has wrong endpoints", p)
		}
	}
}

func TestUPSIMPreservesProperties(t *testing.T) {
	f := buildFixture(t)
	g, _ := NewGenerator(f.model, "infrastructure")
	res, err := g.Generate(f.svc, f.mp, "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Section V-E: instance specifications keep the signature and the
	// static properties of their classes.
	inst, ok := res.UPSIM.Instance("srv")
	if !ok {
		t.Fatal("srv missing from UPSIM")
	}
	if inst.Signature() != "srv:Server" {
		t.Errorf("signature = %q", inst.Signature())
	}
	if v, ok := inst.Property("MTBF"); !ok || v.AsReal() != 60000 {
		t.Errorf("srv MTBF = %v, %v", v, ok)
	}
	for _, l := range res.UPSIM.Links() {
		if v, ok := l.Property("MTBF"); !ok || v.AsReal() != 1e6 {
			t.Errorf("link %s MTBF = %v, %v", l, v, ok)
		}
	}
}

func TestPathsStoredInModelSpace(t *testing.T) {
	f := buildFixture(t)
	g, _ := NewGenerator(f.model, "infrastructure")
	res, err := g.Generate(f.svc, f.mp, "stored", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Record(res); err != nil {
		t.Fatal(err)
	}
	space, err := g.Space()
	if err != nil {
		t.Fatal(err)
	}
	parent, ok := space.Lookup("paths.stored.fetch")
	if !ok {
		t.Fatal("stored path subtree missing")
	}
	kids := parent.Children()
	fetchPaths, _ := res.PathsFor("fetch")
	if len(kids) != len(fetchPaths) {
		t.Fatalf("stored paths = %d, want %d", len(kids), len(fetchPaths))
	}
	if kids[0].Value() != fetchPaths[0].String() {
		t.Errorf("stored path value = %q, want %q", kids[0].Value(), fetchPaths[0].String())
	}
}

func TestGenerateDifferentPerspectives(t *testing.T) {
	// Section VI-H: changing the user perspective touches only the mapping.
	f := buildFixture(t)
	g, _ := NewGenerator(f.model, "infrastructure")
	res1, err := g.Generate(f.svc, f.mp, "p1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp2 := f.mp.Clone()
	// Swap the client's role for the provider-side switch: now the UPSIM is
	// the sub-infrastructure between sw1 and srv.
	if _, err := mp2.RemapComponent("t1", "sw1"); err != nil {
		t.Fatal(err)
	}
	res2, err := g.Generate(f.svc, mp2, "p2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res2.NodeNames() {
		if n == "t1" {
			t.Error("t1 must not appear in the sw1 perspective")
		}
	}
	// Both diagrams coexist in the model once recorded.
	for _, res := range []*Result{res1, res2} {
		if err := g.Record(res); err != nil {
			t.Fatal(err)
		}
		if d, ok := f.model.Diagram(res.Name); !ok || d != res.UPSIM {
			t.Errorf("%s diagram missing", res.Name)
		}
	}
}

func TestGenerateDisconnected(t *testing.T) {
	f := buildFixture(t)
	g, _ := NewGenerator(f.model, "infrastructure")
	mp := mapping.New()
	_ = mp.Add(mapping.Pair{AtomicService: "fetch", Requester: "iso", Provider: "srv"})
	_ = mp.Add(mapping.Pair{AtomicService: "deliver", Requester: "srv", Provider: "iso"})
	_, err := g.Generate(f.svc, mp, "disc", Options{})
	if err == nil || !strings.Contains(err.Error(), "no path") {
		t.Errorf("disconnected pair error = %v", err)
	}
	res, err := g.Generate(f.svc, mp, "disc2", Options{AllowDisconnected: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPaths != 0 || res.Graph.NumNodes() != 0 {
		t.Errorf("partial UPSIM = %d paths, %d nodes", res.TotalPaths, res.Graph.NumNodes())
	}
}

// TestGenerateAlgorithmsAgree pins Step 7's wiring: every atomic service's
// paths from the generator (its CSR kernel, compiled once per model) equal
// a fresh pathdisc.Compile of the generator's graph, in sequence, on the
// diamond fixture and on the USI case study with the Table I mapping, under
// several path options. internal/pathdisc pins the kernel to its map-based
// oracle: TestCompiledMatchesOracleCaseStudy on the same USI pairs and
// options, the property and fuzz tests on random multigraphs.
func TestGenerateAlgorithmsAgree(t *testing.T) {
	f := buildFixture(t)
	usi, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	printing, err := casestudy.PrintingService(usi)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		model   *uml.Model
		diagram string
		svc     *service.Composite
		mp      *mapping.Mapping
	}{
		{"diamond", f.model, "infrastructure", f.svc, f.mp},
		{"usi", usi, casestudy.DiagramName, printing, casestudy.TableIMapping()},
	} {
		g, err := NewGenerator(tc.model, tc.diagram)
		if err != nil {
			t.Fatal(err)
		}
		for i, paths := range []pathdisc.Options{{}, {MaxDepth: 5}} {
			res, err := g.Generate(tc.svc, tc.mp, fmt.Sprintf("agree-%d", i), Options{Paths: paths})
			if err != nil {
				t.Fatalf("%s %+v: %v", tc.name, paths, err)
			}
			for _, sp := range res.Services {
				want, _, err := pathdisc.Compile(g.Graph()).AllPaths(sp.Requester, sp.Provider, paths)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != len(sp.Paths) {
					t.Fatalf("%s %+v %s: %d paths, fresh kernel %d", tc.name, paths, sp.AtomicService, len(sp.Paths), len(want))
				}
				for k := range want {
					if want[k].String() != sp.Paths[k].String() || !slices.Equal(want[k].Edges, sp.Paths[k].Edges) {
						t.Fatalf("%s %+v %s: path %d = %s, fresh kernel %s", tc.name, paths, sp.AtomicService, k, sp.Paths[k], want[k])
					}
				}
			}
		}
	}
}

// TestGenerateShortestAblation: the redundancy ablation (Paths.K = 1)
// keeps one path per atomic service and so yields a smaller UPSIM than
// Definition 2's all redundant paths.
func TestGenerateShortestAblation(t *testing.T) {
	f := buildFixture(t)
	g, _ := NewGenerator(f.model, "infrastructure")
	full, err := g.Generate(f.svc, f.mp, "full", Options{})
	if err != nil {
		t.Fatal(err)
	}
	short, err := g.Generate(f.svc, f.mp, "short", Options{Merge: MergeTraversed, Paths: pathdisc.Options{K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if short.TotalPaths != 2 {
		t.Errorf("shortest ablation paths = %d, want 2", short.TotalPaths)
	}
	if short.Graph.NumNodes() >= full.Graph.NumNodes() {
		t.Errorf("shortest UPSIM should be smaller: %d vs %d nodes",
			short.Graph.NumNodes(), full.Graph.NumNodes())
	}
}

// TestShortestAblationMinimumHops pins the ablation on the three USI
// perspectives: every atomic service keeps exactly one path, that path is
// one of the full enumeration's, and no enumerated path has fewer hops.
func TestShortestAblationMinimumHops(t *testing.T) {
	usi, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	printing, err := casestudy.PrintingService(usi)
	if err != nil {
		t.Fatal(err)
	}
	backup, err := casestudy.BackupService(usi)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(usi, casestudy.DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		svc   *service.Composite
		mp    *mapping.Mapping
		nodes int
	}{
		{"t1-p2", printing, casestudy.TableIMapping(), 10},
		{"t15-p3", printing, casestudy.T15P3Mapping(), 7},
		{"backup", backup, casestudy.BackupMapping(), 10},
	} {
		full, err := g.Generate(tc.svc, tc.mp, tc.name+"-full", Options{})
		if err != nil {
			t.Fatal(err)
		}
		abl, err := g.Generate(tc.svc, tc.mp, tc.name+"-k1", Options{Paths: pathdisc.Options{K: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if len(abl.Services) != len(full.Services) {
			t.Fatalf("%s: %d services, full enumeration %d", tc.name, len(abl.Services), len(full.Services))
		}
		for i, sp := range abl.Services {
			if len(sp.Paths) != 1 {
				t.Fatalf("%s %s: %d ablation paths, want 1", tc.name, sp.AtomicService, len(sp.Paths))
			}
			p := sp.Paths[0]
			found := false
			for _, q := range full.Services[i].Paths {
				if q.Len() < p.Len() {
					t.Errorf("%s %s: ablation path %s has %d hops, enumerated %s has %d",
						tc.name, sp.AtomicService, p, p.Len(), q, q.Len())
				}
				found = found || q.String() == p.String() && slices.Equal(q.Edges, p.Edges)
			}
			if !found {
				t.Errorf("%s %s: ablation path %s is not an enumerated path", tc.name, sp.AtomicService, p)
			}
		}
		if got := abl.Graph.NumNodes(); got != tc.nodes {
			t.Errorf("%s: ablation UPSIM has %d nodes, want %d", tc.name, got, tc.nodes)
		}
	}
}

func TestMergeSemantics(t *testing.T) {
	f := buildFixture(t)
	g, _ := NewGenerator(f.model, "infrastructure")
	// Under a 4-hop bound every path runs sw1-c{1,2}-sw2, so neither core
	// interconnect is traversed; the induced merge restores both from the
	// topology because their endpoints c1 and c2 are on the paths.
	bounded := pathdisc.Options{MaxDepth: 4}
	induced, err := g.Generate(f.svc, f.mp, "m-ind", Options{Merge: MergeInduced, Paths: bounded})
	if err != nil {
		t.Fatal(err)
	}
	traversed, err := g.Generate(f.svc, f.mp, "m-trav", Options{Merge: MergeTraversed, Paths: bounded})
	if err != nil {
		t.Fatal(err)
	}
	if induced.Graph.NumEdges() != 8 {
		t.Errorf("induced edges = %d, want 8", induced.Graph.NumEdges())
	}
	if traversed.Graph.NumEdges() != 6 {
		t.Errorf("traversed edges = %d, want 6", traversed.Graph.NumEdges())
	}
}

func TestGeneratorErrors(t *testing.T) {
	f := buildFixture(t)
	if _, err := NewGenerator(nil, "x"); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := NewGenerator(f.model, "ghost"); err == nil {
		t.Error("unknown diagram should fail")
	}
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(nil, f.mp, "x", Options{}); err == nil {
		t.Error("nil service should fail")
	}
	if _, err := g.Generate(f.svc, f.mp, "", Options{}); err == nil {
		t.Error("empty name should fail")
	}
	incomplete := mapping.New()
	_ = incomplete.Add(mapping.Pair{AtomicService: "fetch", Requester: "t1", Provider: "srv"})
	if _, err := g.Generate(f.svc, incomplete, "x", Options{}); err == nil {
		t.Error("incomplete mapping should fail")
	}
	dangling := mapping.New()
	_ = dangling.Add(mapping.Pair{AtomicService: "fetch", Requester: "ghost", Provider: "srv"})
	_ = dangling.Add(mapping.Pair{AtomicService: "deliver", Requester: "srv", Provider: "ghost"})
	if _, err := g.Generate(f.svc, dangling, "x", Options{}); err == nil {
		t.Error("dangling mapping reference should fail")
	}
	// Invalid model rejected at generator construction.
	bad := uml.NewModel("bad")
	badAct, _ := bad.NewActivity("broken")
	if _, err := badAct.AddAction("floating"); err != nil {
		t.Fatal(err)
	}
	bad.NewObjectDiagram("d")
	if _, err := NewGenerator(bad, "d"); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestMergeSemanticsStrings(t *testing.T) {
	if MergeInduced.String() != "induced" || MergeTraversed.String() != "traversed" {
		t.Error("merge semantics names wrong")
	}
	if !strings.Contains(MergeSemantics(9).String(), "MergeSemantics(") {
		t.Error("unknown merge fallback")
	}
}

func TestGenerateNameCollision(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	first, err := g.Generate(f.svc, f.mp, "dup", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Until recorded, a name is free: generation lists nothing in the model.
	second, err := g.Generate(f.svc, f.mp, "dup", Options{})
	if err != nil {
		t.Fatalf("regenerating an unrecorded name: %v", err)
	}
	if err := g.Record(first); err != nil {
		t.Fatal(err)
	}
	if err := g.Record(second); err == nil || !strings.Contains(err.Error(), `already has an object diagram named "dup"`) {
		t.Errorf("recording a taken name: %v", err)
	}
	other, err := NewGenerator(buildFixture(t).model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Record(second); err == nil {
		t.Error("recorded another model's generation")
	}
	if _, err := g.Generate(f.svc, f.mp, "dup", Options{}); err == nil {
		t.Error("reusing a recorded UPSIM name must fail instead of shadowing the diagram")
	}
	// Colliding with the infrastructure diagram itself is also rejected.
	if _, err := g.Generate(f.svc, f.mp, "infrastructure", Options{}); err == nil {
		t.Error("UPSIM named like the infrastructure diagram must fail")
	}
}

// TestGenerateContextSpans verifies the tentpole tracing contract: a traced
// generation records one span per pipeline stage (Steps 5–8), with the
// per-atomic-service discovery spans nested under Step 7.
func TestGenerateContextSpans(t *testing.T) {
	f := buildFixture(t)
	ctx, root := obs.StartSpan(context.Background(), "generate")
	g, err := NewGeneratorContext(ctx, f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.GenerateContext(ctx, f.svc, f.mp, "traced", Options{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	// Every span has ended with a non-negative duration, and every child
	// interval nests within its parent's.
	walkSpans(root, func(sp *obs.Span) {
		end := sp.EndTime()
		if end.IsZero() {
			t.Errorf("span %q not ended", sp.Name())
			return
		}
		if end.Before(sp.Start()) {
			t.Errorf("span %q has negative duration", sp.Name())
		}
		for _, c := range sp.Children() {
			if c.Start().Before(sp.Start()) {
				t.Errorf("child %q starts before parent %q", c.Name(), sp.Name())
			}
			if cend := c.EndTime(); !cend.IsZero() && cend.After(end) {
				t.Errorf("child %q ends after parent %q", c.Name(), sp.Name())
			}
		}
	})
	byName := map[string]*obs.Span{}
	walkSpans(root, func(sp *obs.Span) { byName[sp.Name()] = sp })
	for _, stage := range []string{"step5.import_uml", "step6.import_mapping", "step7.pathdisc", "step8.merge"} {
		if byName[stage] == nil {
			t.Errorf("stage span %q missing from %v", stage, root.Render())
		}
	}
	step7 := byName["step7.pathdisc"]
	if step7 == nil {
		t.Fatal("no step7 span")
	}
	kids := step7.Children()
	if len(kids) != 2 { // fetch and deliver atomic services
		t.Fatalf("step7 children = %d, want 2 (%s)", len(kids), root.Render())
	}
	attrs := map[string]any{}
	for _, a := range kids[0].Attrs() {
		attrs[a.Key] = a.Value
	}
	for _, k := range []string{"paths", "edge_visits", "nodes_visited", "max_stack"} {
		if _, ok := attrs[k]; !ok {
			t.Errorf("discovery span lacks attr %q: %v", k, attrs)
		}
	}
	// Untraced generation still works (plain Generate, background context).
	if _, err := g.Generate(f.svc, f.mp, "untraced", Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateNeverBuildsSpace: the request path — a pooled or fresh
// generator, generations that succeed or fail — builds no model space and
// leaves the model's bytes as they were; only Space builds a space, and it
// holds what Record added.
func TestGenerateNeverBuildsSpace(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	var before strings.Builder
	if err := uml.Encode(&before, f.model); err != nil {
		t.Fatal(err)
	}
	a, err := g.Generate(f.svc, f.mp, "a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ghost := withPair(t, f.mp, "fetch", "ghost", "srv")
	if _, err := g.Generate(f.svc, ghost, "b", Options{}); err == nil {
		t.Fatal("a ghost requester passed Step 6")
	}
	var after strings.Builder
	if err := uml.Encode(&after, f.model); err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Fatal("Generate changed the model")
	}
	if err := g.Record(a); err != nil {
		t.Fatal(err)
	}
	if g.space != nil {
		t.Fatal("NewGenerator, Generate and Record built a model space")
	}
	pool := NewGeneratorPool(nil, 0, 0)
	xml := fixtureXML(t)
	for i := 0; i < 3; i++ {
		pg, err := pool.Acquire(context.Background(), xml, "infrastructure")
		if err != nil {
			t.Fatal(err)
		}
		poolGenerate(t, pg, "p")
		if pg.space != nil {
			t.Fatal("a pooled generator built a model space")
		}
	}
	space, err := g.Space()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := space.Lookup("paths.a.fetch"); !ok {
		t.Fatal("Space lacks the stored paths of the recorded generation")
	}
	if _, ok := space.Lookup("mappings.a-1"); !ok {
		t.Fatal("Space lacks the mapping import of the recorded generation")
	}
	if _, ok := space.Lookup("paths.b"); ok {
		t.Fatal("Space holds a failed generation")
	}
}

// churnCampus builds the 10-edge-switch campus of the churn traffic, with
// the campus service.
func churnCampus(t *testing.T) (*topology.Graph, *uml.Model) {
	t.Helper()
	tg, err := topology.Campus(topology.CampusParams{EdgeSwitches: 10, ClientsPerEdge: 6, ServersPerSwitch: 4, RedundantCore: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := modelgen.Build("campus", tg, modelgen.Params{Classes: map[string]modelgen.ClassParams{
		"Client": {MTBF: 31415.926535, MTTR: 24},
		"Server": {MTBF: 27182.818284, MTTR: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := service.NewSequential(m, "rpc", "request", "process", "reply"); err != nil {
		t.Fatal(err)
	}
	return tg, m
}

// TestNewGeneratorAllocs caps the allocations of a cold NewGenerator on a
// 10-edge-switch campus: Step 5 checks the model instead of importing one
// entity per UML element, and the topology carves its adjacency lists from
// one array, so the count stays near that of the kernel build (44 on
// go1.24; 48 while Step 5 opened an orphan root span, 184 with one
// adjacency list grown per node, and an eager import took 560 with pooled
// spaces).
func TestNewGeneratorAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts counts")
	}
	tg, m := churnCampus(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewGenerator(m, "infrastructure"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold NewGenerator on a %d-node, %d-link campus: %.0f allocs", tg.NumNodes(), tg.NumEdges(), allocs)
	if allocs > 50 {
		t.Fatalf("cold NewGenerator allocates %.0f objects, want <= 50", allocs)
	}
}

// TestColdBuildAllocs caps the allocations of the whole cold model build a
// never-seen model costs upsimd: DecodeString of the 10-edge-switch churn
// campus, then NewGenerator (131 on go1.24; 135 with the Step 5 span;
// 265 with the scanner's lists
// grown one element at a time and one map or list per class, association
// and stereotype; 864 with one heap object per UML element and per
// adjacency list).
func TestColdBuildAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts counts")
	}
	_, m := churnCampus(t)
	var b strings.Builder
	if err := uml.Encode(&b, m); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	allocs := testing.AllocsPerRun(20, func() {
		dm, err := uml.DecodeString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewGenerator(dm, "infrastructure"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold DecodeString + NewGenerator on the %d-byte campus: %.0f allocs", len(doc), allocs)
	if allocs > 145 {
		t.Fatalf("cold build allocates %.0f objects, want <= 145", allocs)
	}
}

// withPair returns a copy of mp whose atomicService pair has the given
// requester and provider, built with mapping.New and Add in mp's order.
func withPair(t *testing.T, mp *mapping.Mapping, atomicService, requester, provider string) *mapping.Mapping {
	t.Helper()
	out := mapping.New()
	for _, p := range mp.Pairs() {
		if p.AtomicService == atomicService {
			p.Requester, p.Provider = requester, provider
		}
		if err := out.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// walkSpans visits sp and every descendant depth-first.
func walkSpans(sp *obs.Span, visit func(*obs.Span)) {
	visit(sp)
	for _, c := range sp.Children() {
		walkSpans(c, visit)
	}
}
