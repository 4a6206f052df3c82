package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"upsim/internal/mapping"
	"upsim/internal/service"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

// fix is a minimal lint-clean world: a profiled model, a four-node topology
// (a:Host — s1:Net — s2:Net — b:Host), a two-step sequential service and a
// complete mapping. Every rule test mutates one aspect of it.
type fix struct {
	m                 *uml.Model
	device, connector *uml.Stereotype
	host, net         *uml.Class
	hostNet, netNet   *uml.Association
	hostHost          *uml.Association
	d                 *uml.ObjectDiagram
	svc               *service.Composite
	mp                *mapping.Mapping
}

func newFix(t *testing.T) *fix {
	t.Helper()
	f := &fix{m: uml.NewModel("fix")}
	p := uml.NewProfile("availability")
	comp, err := p.DefineAbstractStereotype("Component", uml.MetaclassNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"MTBF", "MTTR"} {
		if err := comp.AddAttribute(a, uml.KindReal); err != nil {
			t.Fatal(err)
		}
	}
	if f.device, err = p.DefineSubStereotype("Device", uml.MetaclassClass, comp); err != nil {
		t.Fatal(err)
	}
	if f.connector, err = p.DefineSubStereotype("Connector", uml.MetaclassAssociation, comp); err != nil {
		t.Fatal(err)
	}
	if err := f.m.AddProfile(p); err != nil {
		t.Fatal(err)
	}

	class := func(name string, mtbf, mttr float64) *uml.Class {
		c, err := f.m.AddClass(name)
		if err != nil {
			t.Fatal(err)
		}
		app, err := c.Apply(f.device)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Set("MTBF", uml.RealValue(mtbf)); err != nil {
			t.Fatal(err)
		}
		if err := app.Set("MTTR", uml.RealValue(mttr)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	f.host = class("Host", 5000, 12)
	f.net = class("Net", 150000, 0.5)

	assoc := func(name string, a, b *uml.Class) *uml.Association {
		as, err := f.m.AddAssociation(name, a, b)
		if err != nil {
			t.Fatal(err)
		}
		app, err := as.Apply(f.connector)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Set("MTBF", uml.RealValue(1e6)); err != nil {
			t.Fatal(err)
		}
		if err := app.Set("MTTR", uml.RealValue(0.1)); err != nil {
			t.Fatal(err)
		}
		return as
	}
	f.hostNet = assoc("Host-Net", f.host, f.net)
	f.netNet = assoc("Net-Net", f.net, f.net)
	f.hostHost = assoc("Host-Host", f.host, f.host)

	f.d = f.m.NewObjectDiagram("net")
	for _, spec := range []struct {
		name string
		cls  *uml.Class
	}{{"a", f.host}, {"s1", f.net}, {"s2", f.net}, {"b", f.host}} {
		if _, err := f.d.AddInstance(spec.name, spec.cls); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct {
		a, b string
		as   *uml.Association
	}{{"a", "s1", f.hostNet}, {"s1", "s2", f.netNet}, {"s2", "b", f.hostNet}} {
		if _, err := f.d.ConnectByName(l.a, l.b, l.as); err != nil {
			t.Fatal(err)
		}
	}

	if f.svc, err = service.NewSequential(f.m, "svc", "op1", "op2"); err != nil {
		t.Fatal(err)
	}
	f.mp = mapping.New()
	for _, op := range []string{"op1", "op2"} {
		if err := f.mp.Add(mapping.Pair{AtomicService: op, Requester: "a", Provider: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *fix) lint(t *testing.T) *Report {
	t.Helper()
	in, err := NewInput(f.m, "net", f.svc, f.mp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Default().Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// byRule returns the diagnostics emitted by one rule.
func byRule(rep *Report, id string) []Diagnostic {
	var out []Diagnostic
	for _, d := range rep.Diagnostics {
		if d.Rule == id {
			out = append(out, d)
		}
	}
	return out
}

// requireRule asserts the rule fired with the expected severity and that some
// diagnostic message contains want.
func requireRule(t *testing.T, rep *Report, id string, sev Severity, want string) []Diagnostic {
	t.Helper()
	ds := byRule(rep, id)
	if len(ds) == 0 {
		t.Fatalf("rule %s did not fire; report:\n%s", id, renderString(rep))
	}
	found := false
	for _, d := range ds {
		if d.Severity != sev {
			t.Errorf("rule %s: severity = %v, want %v", id, d.Severity, sev)
		}
		if strings.Contains(d.Message, want) || strings.Contains(d.Element, want) {
			found = true
		}
	}
	if !found {
		t.Errorf("rule %s: no diagnostic mentions %q; got %v", id, want, ds)
	}
	return ds
}

func renderString(rep *Report) string {
	var buf bytes.Buffer
	_ = rep.Render(&buf)
	return buf.String()
}

func TestCleanFixtureHasNoFindings(t *testing.T) {
	rep := newFix(t).lint(t)
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("clean fixture produced findings:\n%s", renderString(rep))
	}
	if rep.RulesRun < 10 {
		t.Fatalf("RulesRun = %d, want >= 10", rep.RulesRun)
	}
}

func TestRuleModelValidate(t *testing.T) {
	f := newFix(t)
	// A stereotyped class without attribute values is uml.Validate's finding.
	c, err := f.m.AddClass("Unset")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(f.device); err != nil {
		t.Fatal(err)
	}
	rep := f.lint(t)
	requireRule(t, rep, "model-validate", SeverityError, "Unset")
	if !rep.HasErrors() {
		t.Error("expected HasErrors")
	}
}

func TestRuleClassMissingAvailability(t *testing.T) {
	f := newFix(t)
	// No stereotype at all: uml.Validate is silent, but depend analysis
	// would fail — exactly the gap this rule closes.
	bare, err := f.m.AddClass("Bare")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.d.AddInstance("x", bare); err != nil {
		t.Fatal(err)
	}
	rep := f.lint(t)
	if err := f.m.Validate(); err != nil {
		t.Fatalf("uml.Validate should accept the unprofiled class, got %v", err)
	}
	ds := requireRule(t, rep, "class-missing-availability", SeverityError, `class "Bare"`)
	if len(ds) != 2 { // MTBF and MTTR
		t.Errorf("got %d diagnostics, want 2 (MTBF+MTTR)", len(ds))
	}
}

func TestRuleClassNonPositiveAvailability(t *testing.T) {
	f := newFix(t)
	c, err := f.m.AddClass("Neg")
	if err != nil {
		t.Fatal(err)
	}
	app, err := c.Apply(f.device)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Set("MTBF", uml.RealValue(-5)); err != nil {
		t.Fatal(err)
	}
	if err := app.Set("MTTR", uml.RealValue(-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.d.AddInstance("n", c); err != nil {
		t.Fatal(err)
	}
	ds := requireRule(t, f.lint(t), "class-nonpositive-availability", SeverityError, `class "Neg"`)
	if len(ds) != 2 {
		t.Errorf("got %d diagnostics, want 2 (negative MTBF and MTTR)", len(ds))
	}
}

func TestRuleMappingDanglingRef(t *testing.T) {
	f := newFix(t)
	f.mp = withPair(t, f.mp, "op1", "ghost", "b")
	requireRule(t, f.lint(t), "mapping-dangling-ref", SeverityError, "ghost")
}

func TestRuleMappingMissingPair(t *testing.T) {
	f := newFix(t)
	f.mp = mapping.New()
	if err := f.mp.Add(mapping.Pair{AtomicService: "op1", Requester: "a", Provider: "b"}); err != nil {
		t.Fatal(err)
	}
	requireRule(t, f.lint(t), "mapping-missing-pair", SeverityError, `atomic service "op2"`)
}

func TestRuleMappingUnusedPair(t *testing.T) {
	f := newFix(t)
	if err := f.mp.Add(mapping.Pair{AtomicService: "extra", Requester: "a", Provider: "b"}); err != nil {
		t.Fatal(err)
	}
	requireRule(t, f.lint(t), "mapping-unused-pair", SeverityWarning, `pair "extra"`)
}

func TestRuleMappingUnreachablePair(t *testing.T) {
	f := newFix(t)
	// A disconnected island i1—i2; op2 maps onto it from the main component.
	for _, n := range []string{"i1", "i2"} {
		if _, err := f.d.AddInstance(n, f.host); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.d.ConnectByName("i1", "i2", f.hostHost); err != nil {
		t.Fatal(err)
	}
	f.mp = withPair(t, f.mp, "op2", "a", "i1")
	rep := f.lint(t)
	requireRule(t, rep, "mapping-unreachable-pair", SeverityError, "different connected components")
	if len(byRule(rep, "mapping-dangling-ref")) != 0 {
		t.Error("dangling-ref must not fire for existing but unreachable components")
	}
}

func TestRuleServiceForkJoinArity(t *testing.T) {
	f := newFix(t)
	// A fork opening three branches of which only two pass through the join:
	// structurally valid (uml.Validate passes), concurrently unbalanced.
	act, err := f.m.NewActivity("par")
	if err != nil {
		t.Fatal(err)
	}
	fork, join := act.AddFork(), act.AddJoin()
	x, _ := act.AddAction("x")
	y, _ := act.AddAction("y")
	z, _ := act.AddAction("z")
	fin, bypass := act.AddFinal(), act.AddFinal()
	for _, fl := range [][2]*uml.ActivityNode{
		{act.Initial(), fork},
		{fork, x}, {fork, y}, {fork, z},
		{x, join}, {y, join}, {join, fin},
		{z, bypass},
	} {
		if err := act.Flow(fl[0], fl[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := act.Validate(); err != nil {
		t.Fatalf("arity fixture must be structurally valid, got %v", err)
	}
	requireRule(t, f.lint(t), "service-fork-join-arity", SeverityWarning, `activity "par"`)
}

func TestRuleServiceUnreachableNode(t *testing.T) {
	f := newFix(t)
	act, err := f.m.NewActivity("orphan")
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := act.AddAction("a1")
	fin := act.AddFinal()
	if err := act.Flow(act.Initial(), a1); err != nil {
		t.Fatal(err)
	}
	if err := act.Flow(a1, fin); err != nil {
		t.Fatal(err)
	}
	if _, err := act.AddAction("stray"); err != nil {
		t.Fatal(err)
	}
	rep := f.lint(t)
	requireRule(t, rep, "service-unreachable-node", SeverityError, "Action(stray)")
	// uml.Validate flags the same activity; both views coexist in one report.
	requireRule(t, rep, "model-validate", SeverityError, `activity "orphan"`)
}

func TestRuleServiceTooFewActions(t *testing.T) {
	f := newFix(t)
	act, err := f.m.NewActivity("tiny")
	if err != nil {
		t.Fatal(err)
	}
	only, _ := act.AddAction("only")
	fin := act.AddFinal()
	if err := act.Flow(act.Initial(), only); err != nil {
		t.Fatal(err)
	}
	if err := act.Flow(only, fin); err != nil {
		t.Fatal(err)
	}
	requireRule(t, f.lint(t), "service-too-few-actions", SeverityWarning, `activity "tiny"`)
}

func TestRuleTopologyDuplicateObject(t *testing.T) {
	f := newFix(t)
	// Case-only collision within one diagram.
	if _, err := f.d.AddInstance("A", f.host); err != nil {
		t.Fatal(err)
	}
	// Cross-diagram class conflict: "a" is a Host in "net", a Net in "other".
	other := f.m.NewObjectDiagram("other")
	if _, err := other.AddInstance("a", f.net); err != nil {
		t.Fatal(err)
	}
	rep := f.lint(t)
	requireRule(t, rep, "topology-duplicate-object", SeverityWarning, "differs only in case")
	requireRule(t, rep, "topology-duplicate-object", SeverityWarning, `diagram "other"`)
}

func TestRuleTopologySelfLoop(t *testing.T) {
	f := newFix(t)
	// The UML layer rejects self-links, so feed a hand-built graph (the
	// synthetic-topology entry point).
	g := topology.New()
	if err := g.AddNode("x", "Host"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("x", "x", "loop"); err != nil {
		t.Fatal(err)
	}
	rep, err := Default().Run(&Input{Model: f.m, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	requireRule(t, rep, "topology-self-loop", SeverityWarning, `object "x"`)
}

func TestRuleTopologyIsolatedNode(t *testing.T) {
	f := newFix(t)
	if _, err := f.d.AddInstance("lonely", f.host); err != nil {
		t.Fatal(err)
	}
	requireRule(t, f.lint(t), "topology-isolated-node", SeverityWarning, `object "lonely"`)
}

func TestRuleTopologyParallelLinks(t *testing.T) {
	f := newFix(t)
	g := topology.New()
	for _, n := range []string{"x", "y"} {
		if err := g.AddNode(n, "Net"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := g.AddEdge("x", "y", "trunk"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Default().Run(&Input{Model: f.m, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	requireRule(t, rep, "topology-parallel-links", SeverityInfo, "2 parallel links")
}

func TestRunOrdersBySeverity(t *testing.T) {
	f := newFix(t)
	// Provoke an error (dangling ref), a warning (unused pair) and an info
	// (parallel links) in one run.
	f.mp = withPair(t, f.mp, "op1", "ghost", "b")
	if err := f.mp.Add(mapping.Pair{AtomicService: "extra", Requester: "a", Provider: "b"}); err != nil {
		t.Fatal(err)
	}
	in, err := NewInput(f.m, "net", f.svc, f.mp)
	if err != nil {
		t.Fatal(err)
	}
	g := topology.FromObjectDiagram(f.d)
	if _, err := g.AddEdge("s1", "s2", "trunk2"); err != nil {
		t.Fatal(err)
	}
	in.Graph = g
	rep, err := Default().Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 || rep.Warnings == 0 || rep.Infos == 0 {
		t.Fatalf("want all three severities, got %s", rep.Summary())
	}
	for i := 1; i < len(rep.Diagnostics); i++ {
		if rep.Diagnostics[i].Severity > rep.Diagnostics[i-1].Severity {
			t.Fatalf("diagnostics not ordered by severity: %v before %v",
				rep.Diagnostics[i-1], rep.Diagnostics[i])
		}
	}
	if rep.Diagnostics[0].Severity != SeverityError {
		t.Error("errors must lead the report")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	f := newFix(t)
	f.mp = withPair(t, f.mp, "op1", "ghost", "b")
	if err := f.mp.Add(mapping.Pair{AtomicService: "extra", Requester: "a", Provider: "b"}); err != nil {
		t.Fatal(err)
	}
	rep := f.lint(t)
	var buf bytes.Buffer
	if err := rep.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Diagnostics) != len(rep.Diagnostics) {
		t.Fatalf("round trip lost diagnostics: %d != %d", len(got.Diagnostics), len(rep.Diagnostics))
	}
	for i := range got.Diagnostics {
		if got.Diagnostics[i] != rep.Diagnostics[i] {
			t.Errorf("diagnostic %d changed: %+v != %+v", i, got.Diagnostics[i], rep.Diagnostics[i])
		}
	}
	if got.Errors != rep.Errors || got.Warnings != rep.Warnings || got.Infos != rep.Infos {
		t.Errorf("tallies changed: %s != %s", got.Summary(), rep.Summary())
	}
	// Severities travel as names, not numbers.
	var raw map[string]any
	if err := json.Unmarshal([]byte(renderJSON(t, rep)), &raw); err != nil {
		t.Fatal(err)
	}
	first := raw["diagnostics"].([]any)[0].(map[string]any)
	if _, ok := first["severity"].(string); !ok {
		t.Errorf("severity not a JSON string: %v", first["severity"])
	}
}

func renderJSON(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestDecodeReportRecomputesTallies(t *testing.T) {
	doc := `{"diagnostics":[{"rule":"x","severity":"error","element":"e","message":"m"}],
	         "errors":99,"warnings":99,"infos":99,"rulesRun":5}`
	rep, err := DecodeReport(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 1 || rep.Warnings != 0 || rep.Infos != 0 {
		t.Errorf("tallies not recomputed: %s", rep.Summary())
	}
	if rep.RulesRun != 5 {
		t.Errorf("RulesRun = %d, want 5", rep.RulesRun)
	}
}

func TestSeverityText(t *testing.T) {
	for sev, name := range map[Severity]string{
		SeverityInfo: "info", SeverityWarning: "warning", SeverityError: "error",
	} {
		b, err := sev.MarshalText()
		if err != nil || string(b) != name {
			t.Errorf("MarshalText(%v) = %q, %v", sev, b, err)
		}
		var back Severity
		if err := back.UnmarshalText([]byte(name)); err != nil || back != sev {
			t.Errorf("UnmarshalText(%q) = %v, %v", name, back, err)
		}
	}
	if _, err := Severity(99).MarshalText(); err == nil {
		t.Error("unknown severity must not marshal")
	}
	var s Severity
	if err := s.UnmarshalText([]byte("fatal")); err == nil {
		t.Error("unknown severity must not unmarshal")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "r", Severity: SeverityError, Element: `pair "p"`, Message: "broken", Hint: "fix it"}
	want := `error[r] pair "p": broken (fix: fix it)`
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
	d.Hint = ""
	if strings.Contains(d.String(), "fix:") {
		t.Error("empty hint must not render")
	}
}

func TestReportErrAndAsError(t *testing.T) {
	f := newFix(t)
	f.mp = withPair(t, f.mp, "op1", "ghost", "b")
	rep := f.lint(t)
	err := rep.Err()
	if err == nil {
		t.Fatal("Err() = nil for a report with errors")
	}
	le, ok := AsError(err)
	if !ok || le.Report != rep {
		t.Fatalf("AsError failed: %v %v", le, ok)
	}
	if !strings.Contains(err.Error(), "mapping-dangling-ref") {
		t.Errorf("error text should carry the first error diagnostic: %q", err.Error())
	}
	clean := newFix(t).lint(t)
	if clean.Err() != nil {
		t.Error("Err() must be nil for a clean report")
	}
}

func TestRegistry(t *testing.T) {
	reg := Default()
	rules := reg.Rules()
	if len(rules) < 10 {
		t.Fatalf("built-in registry has %d rules, want >= 10", len(rules))
	}
	seen := make(map[string]bool)
	for _, r := range rules {
		if r.ID() == "" || r.Doc() == "" {
			t.Errorf("rule %q lacks ID or doc", r.ID())
		}
		if seen[r.ID()] {
			t.Errorf("duplicate rule ID %q", r.ID())
		}
		seen[r.ID()] = true
	}
	if err := reg.Register(rules[0]); err == nil {
		t.Error("re-registering an existing ID must fail")
	}
	if err := reg.Register(nil); err == nil {
		t.Error("nil rule must be rejected")
	}
	if _, err := reg.Run(nil); err == nil {
		t.Error("Run(nil) must fail")
	}
}

func TestNewInputErrors(t *testing.T) {
	if _, err := NewInput(nil, "", nil, nil); err == nil {
		t.Error("nil model must be rejected")
	}
	f := newFix(t)
	if _, err := NewInput(f.m, "missing", nil, nil); err == nil {
		t.Error("unknown diagram must be rejected")
	}
	in, err := NewInput(f.m, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.Diagram != nil || in.Graph != nil {
		t.Error("empty diagram name must produce a model-only input")
	}
	if _, err := Default().Run(in); err != nil {
		t.Errorf("model-only run failed: %v", err)
	}
}

func TestUnionFind(t *testing.T) {
	g := topology.New()
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		if err := g.AddNode(n, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"d", "e"}} {
		if _, err := g.AddEdge(e[0], e[1], ""); err != nil {
			t.Fatal(err)
		}
	}
	uf := newUnionFind(g)
	if !uf.connected("a", "c") {
		t.Error("a and c share a component")
	}
	if uf.connected("a", "d") {
		t.Error("a and d are in different components")
	}
	if uf.connected("a", "ghost") || uf.connected("ghost", "ghost") {
		t.Error("unknown names are never connected")
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
