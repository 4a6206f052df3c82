package upsim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeEndToEnd drives the full public workflow: build the case-study
// model, generate both published UPSIMs, analyse availability, round-trip
// the artefacts through their XML codecs and render DOT.
func TestFacadeEndToEnd(t *testing.T) {
	m, err := USIModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := USIPrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(m, USIDiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, USITableIMapping(), "t1-to-p2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.NodeNames()); got != 10 {
		t.Errorf("Figure 11 UPSIM size = %d, want 10", got)
	}
	rep, err := Analyze(res, ModelExact, 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exact <= 0.9 || rep.Exact >= 1 {
		t.Errorf("availability = %v, implausible", rep.Exact)
	}

	// Model XML round trip keeps the recorded UPSIM diagram.
	if err := gen.Record(res); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d2, ok := m2.Diagram("t1-to-p2")
	if !ok {
		t.Fatal("UPSIM diagram lost in round trip")
	}
	if d2.NumInstances() != res.UPSIM.NumInstances() {
		t.Errorf("round trip instances = %d, want %d", d2.NumInstances(), res.UPSIM.NumInstances())
	}

	// Mapping XML round trip.
	var mbuf bytes.Buffer
	if err := WriteMapping(&mbuf, USITableIMapping()); err != nil {
		t.Fatal(err)
	}
	mp2, err := ReadMapping(&mbuf)
	if err != nil {
		t.Fatal(err)
	}
	if mp2.Len() != 5 {
		t.Errorf("mapping round trip = %d pairs", mp2.Len())
	}

	// DOT rendering of the UPSIM.
	dot := ToDOT(res.Graph, "UPSIM t1→p2")
	if !strings.Contains(dot, "printS") || !strings.Contains(dot, "graph") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
}

func TestFacadeServiceConstruction(t *testing.T) {
	m := NewModel("demo")
	seq, err := NewSequentialService(m, "seq", "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.AtomicServices(); len(got) != 3 {
		t.Errorf("atomics = %v", got)
	}
	staged, err := NewStagedService(m, "staged", [][]string{{"x"}, {"y", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := staged.Stages(); len(got) != 2 || len(got[1]) != 2 {
		t.Errorf("stages = %v", got)
	}
	act, _ := m.Activity("seq")
	wrapped, err := ServiceFromActivity(act)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Name() != "seq" {
		t.Errorf("wrapped = %q", wrapped.Name())
	}
}

func TestFacadeAvailability(t *testing.T) {
	a, err := Availability(3000, 24)
	if err != nil || a <= 0.99 || a >= 1 {
		t.Errorf("Availability = %v, %v", a, err)
	}
	f, err := AvailabilityFormula1(3000, 24)
	if err != nil || f != 0.992 {
		t.Errorf("Formula1 = %v, %v", f, err)
	}
}

func TestFacadeStructureOf(t *testing.T) {
	m, _ := USIModel()
	svc, _ := USIPrintingService(m)
	gen, _ := NewGenerator(m, USIDiagramName)
	res, err := gen.Generate(svc, USITableIMapping(), "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, avail, err := StructureOf(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.AtomicServices) != 5 {
		t.Errorf("atomics = %d", len(st.AtomicServices))
	}
	if len(avail) == 0 {
		t.Error("availability table empty")
	}
	exact, err := st.Exact(avail)
	if err != nil || exact <= 0 {
		t.Errorf("exact = %v, %v", exact, err)
	}
}

func TestFacadeBackup(t *testing.T) {
	m, _ := USIModel()
	svc, err := USIBackupService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := NewGenerator(m, USIDiagramName)
	res, err := gen.Generate(svc, USIBackupMapping(), "backup-t7", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.HasNode("backup") || !res.Graph.HasNode("t7") {
		t.Errorf("backup UPSIM nodes = %v", res.NodeNames())
	}
}

func TestFacadeDiffAndCount(t *testing.T) {
	m, _ := USIModel()
	svc, _ := USIPrintingService(m)
	gen, _ := NewGenerator(m, USIDiagramName)
	r1, err := gen.Generate(svc, USITableIMapping(), "da", Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := gen.Generate(svc, USIT15P3Mapping(), "db", Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CompareResults(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("perspective change must diff")
	}
	// t1's whole branch leaves, t15's enters.
	wantRemoved := map[string]bool{"t1": true, "e1": true, "d1": true, "p2": true, "e3": true}
	for _, n := range d.RemovedNodes {
		if !wantRemoved[n] {
			t.Errorf("unexpected removed node %s", n)
		}
	}
	n, _, err := CountPaths(gen.Graph(), "t1", "printS", PathOptions{})
	if err != nil || n != 2 {
		t.Errorf("CountPaths = %d, %v", n, err)
	}
}

func TestFacadePatternsAndRBD(t *testing.T) {
	m, _ := USIModel()
	svc, _ := USIPrintingService(m)
	gen, _ := NewGenerator(m, USIDiagramName)
	res, err := gen.Generate(svc, USITableIMapping(), "rbd-x", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Record(res); err != nil {
		t.Fatal(err)
	}
	// VTCL patterns run against the generator's space.
	pats, err := ParsePatterns(`pattern servers(S, C) = {
		instanceOf(S, "metamodel.uml.InstanceSpecification");
		directed(S, "classifier", C);
		name(C, "Server");
	}`)
	if err != nil {
		t.Fatal(err)
	}
	space, err := gen.Space()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := pats[0].Match(space, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 6 {
		t.Errorf("server instances = %d, want 6", len(ms))
	}
	// RBD model generation and evaluation.
	avail := map[string]float64{}
	for _, inst := range res.Source.Instances() {
		mtbf, _ := inst.Property("MTBF")
		mttr, _ := inst.Property("MTTR")
		a, err := Availability(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			t.Fatal(err)
		}
		avail[inst.Name()] = a
	}
	root, block, err := GenerateRBD(gen, "rbd-x", avail)
	if err != nil {
		t.Fatal(err)
	}
	a, err := block.Availability()
	if err != nil || a <= 0 || a > 1 {
		t.Errorf("RBD availability = %v, %v", a, err)
	}
	if out := RenderRBD(root); !strings.Contains(out, "[parallel]") {
		t.Errorf("rendering = %q", out)
	}
}

func TestFacadeWorkspaceAndTopologyModel(t *testing.T) {
	// Synthesize a campus model from a generated topology and persist it in
	// a workspace, then reload and generate.
	g, err := topologyCampus()
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModelFromTopology("gen", g, TopologyParams{
		Classes: map[string]TopologyClassParams{"Client": {MTBF: 3000, MTTR: 24}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSequentialService(m, "svc", "a", "b"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := InitWorkspace(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	mp := NewMapping()
	_ = mp.Add(Pair{AtomicService: "a", Requester: "t1", Provider: "srv1"})
	_ = mp.Add(Pair{AtomicService: "b", Requester: "srv1", Provider: "t1"})
	if err := w.SaveMapping("t1", mp); err != nil {
		t.Fatal(err)
	}
	w2, err := LoadWorkspace(dir)
	if err != nil {
		t.Fatal(err)
	}
	act, _ := w2.Model.Activity("svc")
	svc, err := ServiceFromActivity(act)
	if err != nil {
		t.Fatal(err)
	}
	if names := w2.MappingNames(); len(names) != 1 || names[0] != "t1" {
		t.Fatalf("mappings = %v, want [t1]", names)
	}
	f, err := os.Open(filepath.Join(dir, "mappings", "t1.xml"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mp2, err := ReadMapping(f)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(w2.Model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, mp2, "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.HasNode("t1") || !res.Graph.HasNode("srv1") {
		t.Errorf("UPSIM = %v", res.NodeNames())
	}
}

func TestCloneModel(t *testing.T) {
	m, err := USIModel()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := CloneModel(m)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone's diagram leaves the original untouched.
	d, _ := clone.Diagram(USIDiagramName)
	comp := clone.MustClass("Comp")
	if _, err := d.AddInstance("t99", comp); err != nil {
		t.Fatal(err)
	}
	orig, _ := m.Diagram(USIDiagramName)
	if _, ok := orig.Instance("t99"); ok {
		t.Error("clone mutation leaked into the original")
	}
	if clone.Name() != m.Name() || len(clone.Classes()) != len(m.Classes()) {
		t.Error("clone structurally differs")
	}
	// The clone still drives the pipeline and reproduces Figure 11.
	svc, err := USIPrintingService(clone)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(clone, USIDiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, USITableIMapping(), "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.NodeNames()); got != 10 {
		t.Errorf("clone UPSIM size = %d", got)
	}
}

// TestFacadeLint asserts the published case study stays free of
// error-severity findings — the same invariant CI enforces via
// `upsim lint -casestudy` — and exercises the facade's JSON round trip.
func TestFacadeLint(t *testing.T) {
	m, err := USIModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := USIPrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Lint(m, USIDiagramName, svc, USITableIMapping())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("USI case study has lint findings: %s", rep.Summary())
	}
	if rep.RulesRun < 10 {
		t.Errorf("rules run = %d, want >= 10", rep.RulesRun)
	}
	if err := rep.Err(); err != nil {
		t.Errorf("clean report Err() = %v", err)
	}
	if len(LintRules()) != rep.RulesRun {
		t.Errorf("LintRules() = %d rules, report says %d", len(LintRules()), rep.RulesRun)
	}

	var buf bytes.Buffer
	if err := rep.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeLintReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.RulesRun != rep.RulesRun || len(back.Diagnostics) != 0 {
		t.Errorf("round trip changed the report: %+v", back)
	}

	// The backup service shares the mapping-coverage rules but has its own
	// mapping; it must lint clean too.
	backup, err := USIBackupService(m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = Lint(m, USIDiagramName, backup, USIBackupMapping())
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() {
		t.Errorf("backup service lint: %s", rep.Summary())
	}

	// A deliberately broken mapping surfaces through AsLintError.
	mp := NewMapping()
	for _, p := range USITableIMapping().Pairs() {
		if p.AtomicService == "Request printing" {
			p.Requester = "ghost"
		}
		if err := mp.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = Lint(m, USIDiagramName, svc, mp)
	if err != nil {
		t.Fatal(err)
	}
	lerr, ok := AsLintError(rep.Err())
	if !ok || lerr.Report.Errors == 0 {
		t.Errorf("AsLintError = %v, %v", lerr, ok)
	}
	if !strings.Contains(lerr.Error(), "mapping-dangling-ref") {
		t.Errorf("error text = %q", lerr.Error())
	}
}

// TestFacadeExplain drives the provenance & attribution surface through the
// public API: Explain, PathStatisticsOf, ValidateUPSIM and the structured
// budget error.
func TestFacadeExplain(t *testing.T) {
	m, err := USIModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := USIPrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(m, USIDiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, USITableIMapping(), "facade-explain", Options{})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Explain(context.Background(), res, ExplainOptions{TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Count != res.TotalPaths || rep.Attribution == nil {
		t.Fatalf("explain report incomplete: %+v", rep)
	}
	if len(rep.Attribution.CutSets) != 3 || len(rep.Attribution.Components) != 3 {
		t.Errorf("TopN not applied: %d cuts, %d components",
			len(rep.Attribution.CutSets), len(rep.Attribution.Components))
	}
	var tree *DiscoveryTree = rep.Services[0].Tree
	if tree == nil || tree.Depth() != rep.Services[0].Stats.MaxLength+1 {
		t.Errorf("discovery tree inconsistent: %+v", tree)
	}
	st := PathStatisticsOf(res.Services[0].Paths)
	if st.Count != rep.Services[0].Stats.Count || st.MeanLength != rep.Services[0].Stats.MeanLength {
		t.Errorf("PathStatisticsOf = %+v, report stats %+v", st, rep.Services[0].Stats)
	}

	// Self-validation is fresh.
	cur, ok := m.Diagram(USIDiagramName)
	if !ok {
		t.Fatal("no infrastructure diagram")
	}
	v, err := ValidateUPSIM(context.Background(), res, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Fresh {
		t.Errorf("self-validation stale: %+v", v.Issues)
	}

	// The structured budget error surfaces through the facade.
	_, err = Explain(context.Background(), res, ExplainOptions{CutLimit: 1})
	be, ok := AsBudgetError(err)
	if !ok || be.Limit != 1 || be.AtomicService == "" {
		t.Fatalf("AsBudgetError = %+v, %v (err %v)", be, ok, err)
	}
}

// TestFacadeReservedLinkName renames the USI edge switch d4 to "c1--d4#0",
// the component ID form of link edge 0. The analyses must reject the name
// rather than read the device back as that link (class C6500-C6500, link
// MTBF/MTTR) or merge it with a real link of the same ID.
func TestFacadeReservedLinkName(t *testing.T) {
	m, err := USIModel()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	const reserved = "c1--d4#0"
	renamed, err := ReadModel(strings.NewReader(strings.ReplaceAll(buf.String(), `"d4"`, `"`+reserved+`"`)))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := USIPrintingService(renamed)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(renamed, USIDiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, USITableIMapping(), "reserved", Options{})
	if err != nil {
		t.Fatalf("generation must still accept the name: %v", err)
	}
	if _, ok := res.Graph.Node(reserved); !ok {
		t.Fatalf("UPSIM does not route through %q", reserved)
	}
	want := `depend: instance name "c1--d4#0" has the reserved link component form a--b#<edge>`
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Analyze", func() error { _, err := Analyze(res, ModelExact, 1000, 1); return err }},
		{"AnalyzeSensitivity", func() error { _, err := AnalyzeSensitivity(res); return err }},
		{"Explain", func() error { _, err := Explain(context.Background(), res, ExplainOptions{}); return err }},
	} {
		err := tc.run()
		var re *ReservedNameError
		if !errors.As(err, &re) || re.Name != reserved || err.Error() != want {
			t.Errorf("%s: error %v, want %q", tc.name, err, want)
		}
	}
}
