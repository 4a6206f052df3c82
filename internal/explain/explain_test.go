package explain

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/testutil"
)

// usiResult generates the USI printing-service UPSIM (Table I mapping,
// t1 → p2 → printS) — the acceptance fixture of the whole subsystem.
func usiResult(t *testing.T) *core.Result {
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
	res, err := gen.Generate(svc, casestudy.TableIMapping(), "usi-explain", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// explainAllocCeiling bounds one full explain report of the USI UPSIM:
// 389 allocations today, most of them the report itself (path records,
// trees, cut-set and importance rows) plus the structure's recorded
// factoring program, down from about 475 before the cut-set expansion
// reused its per-level buffers and about 2,730 when every component ran six
// factorings and the class report rebuilt the structure.
const explainAllocCeiling = 389

// TestExplainAllocCeiling guards the allocation budget of the explain
// report on the compiled kernel.
func TestExplainAllocCeiling(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts exact counts")
	}
	res := usiResult(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Explain(context.Background(), res, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Explain allocates %.0f objects per run", allocs)
	if allocs > explainAllocCeiling {
		t.Errorf("Explain allocates %.0f objects per run, ceiling %d", allocs, explainAllocCeiling)
	}
}

// TestExplainKernelParity is the wiring gate of the attribution: the
// report's availability, minimal cut sets (with their unavailability and
// share) and Birnbaum and Fussell–Vesely importances must equal the
// ServiceStructure methods called directly on the structure FromResult
// builds, bit for bit, under both availability models. Those methods
// compile the structure afresh; internal/depend's equivalence tests pin the
// kernel to its map-based oracle on the same USI structures.
func TestExplainKernelParity(t *testing.T) {
	res := usiResult(t)
	for _, model := range []depend.AvailabilityModel{depend.ModelExact, depend.ModelFormula1} {
		compiled, err := Explain(context.Background(), res, Options{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if compiled.Kernel != "compiled" {
			t.Fatalf("kernel = %q", compiled.Kernel)
		}
		st, _, avail, err := depend.FromResult(res, model)
		if err != nil {
			t.Fatal(err)
		}
		attr := compiled.Attribution
		want, err := st.Exact(avail)
		if err != nil {
			t.Fatal(err)
		}
		if attr.Availability != want || attr.Unavailability != 1-want {
			t.Fatalf("%s: availability %v, ServiceStructure.Exact %v", model, attr.Availability, want)
		}

		cuts, err := st.MinimalCutSets(0)
		if err != nil {
			t.Fatal(err)
		}
		if attr.CutSetsTotal != len(cuts) || len(attr.CutSets) != len(cuts) {
			t.Fatalf("%s: %d/%d cut sets, ServiceStructure.MinimalCutSets has %d", model, len(attr.CutSets), attr.CutSetsTotal, len(cuts))
		}
		wantQ := make(map[string]float64, len(cuts))
		sum := 0.0
		for _, k := range cuts {
			q := 1.0
			for _, c := range k {
				q *= 1 - avail[c]
			}
			wantQ[strings.Join(k, ",")] = q
			sum += q
		}
		for i, rec := range attr.CutSets {
			q, ok := wantQ[strings.Join(rec.Components, ",")]
			if !ok || rec.Unavailability != q || rec.Share != q/sum {
				t.Fatalf("%s: cut set %v = %+v, want unavailability %v (found %v), share %v", model, rec.Components, rec, q, ok, q/sum)
			}
			if i > 0 && rec.Unavailability > attr.CutSets[i-1].Unavailability {
				t.Fatalf("%s: cut sets not ranked by unavailability at %d", model, i)
			}
		}

		comps := st.Components()
		if attr.ComponentsTotal != len(comps) || len(attr.Components) != len(comps) {
			t.Fatalf("%s: %d components, the structure has %d", model, attr.ComponentsTotal, len(comps))
		}
		exact, err := st.Exact(avail)
		if err != nil {
			t.Fatal(err)
		}
		for _, ci := range attr.Components {
			// The importances from WhatIf: Birnbaum is the availability with
			// the component forced up minus forced down, Fussell–Vesely
			// the share of the unavailability the component's failures
			// cause.
			up, err := st.WhatIf(avail, map[string]bool{ci.Component: true})
			if err != nil {
				t.Fatal(err)
			}
			down, err := st.WhatIf(avail, map[string]bool{ci.Component: false})
			if err != nil {
				t.Fatal(err)
			}
			b, fv := up-down, 0.0
			if qSys := 1 - exact; qSys != 0 {
				fv = ((1 - exact) - (1 - up)) / qSys
			}
			if ci.Birnbaum != b || ci.FussellVesely != fv || ci.Availability != avail[ci.Component] {
				t.Fatalf("%s: %s = %+v, from WhatIf Birnbaum %v, Fussell–Vesely %v, availability %v",
					model, ci.Component, ci, b, fv, avail[ci.Component])
			}
		}
		// The class report reuses the ranking's Birnbaum factors under the
		// exact model and recomputes them otherwise; either way it is
		// depend.Sensitivity's.
		sens, err := depend.Sensitivity(res)
		if err != nil {
			t.Fatal(err)
		}
		if len(sens.Classes) != len(compiled.Attribution.Classes) {
			t.Fatalf("%s: %d classes, depend.Sensitivity has %d", model, len(compiled.Attribution.Classes), len(sens.Classes))
		}
		for i, c := range sens.Classes {
			want := ClassRecord{Class: c.Class, Instances: c.Instances, DAvailDMTBF: c.DAvailDMTBF, DAvailDMTTR: c.DAvailDMTTR}
			if got := compiled.Attribution.Classes[i]; got != want {
				t.Fatalf("%s: class %d = %+v, depend.Sensitivity has %+v", model, i, got, want)
			}
		}
	}
}

func TestExplainUSIReport(t *testing.T) {
	res := usiResult(t)
	rep, err := Explain(context.Background(), res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "usi-explain" {
		t.Errorf("name = %q", rep.Name)
	}
	if len(rep.Services) != len(casestudy.PrintingAtomicServices) {
		t.Fatalf("services = %d, want %d", len(rep.Services), len(casestudy.PrintingAtomicServices))
	}
	if rep.Stats.Count != res.TotalPaths {
		t.Errorf("aggregate count = %d, want %d", rep.Stats.Count, res.TotalPaths)
	}
	if rep.Truncated {
		t.Error("unbounded USI discovery reported truncated")
	}

	for i, svc := range rep.Services {
		sp := res.Services[i]
		if svc.AtomicService != sp.AtomicService {
			t.Fatalf("service %d = %q, want %q", i, svc.AtomicService, sp.AtomicService)
		}
		if len(svc.Paths) != len(sp.Paths) || svc.Stats.Count != len(sp.Paths) {
			t.Errorf("service %q: %d records, stats count %d, want %d",
				svc.AtomicService, len(svc.Paths), svc.Stats.Count, len(sp.Paths))
		}
		// Per-path records mirror the discovered paths.
		for j, rec := range svc.Paths {
			p := sp.Paths[j]
			if rec.Index != j || !reflect.DeepEqual(rec.Nodes, p.Nodes) || rec.Length != p.Len() {
				t.Errorf("service %q path %d record mismatch: %+v vs %v", svc.AtomicService, j, rec, p)
			}
			wantType := PathTransitive
			if p.Len() <= 1 {
				wantType = PathDirect
			}
			if rec.Type != wantType {
				t.Errorf("path %s type = %q, want %q", p, rec.Type, wantType)
			}
			nodeCount := 0
			for _, n := range rec.Classes {
				nodeCount += n
			}
			if nodeCount != len(p.Nodes) {
				t.Errorf("path %s class counts sum to %d, want %d", p, nodeCount, len(p.Nodes))
			}
			// Every USI link carries throughput and channel, so the cost is
			// a sum of positive reciprocals and a bottleneck exists.
			if rec.Cost <= 0 || rec.Cost >= float64(p.Len()) {
				t.Errorf("path %s cost = %v (want within (0, hops))", p, rec.Cost)
			}
			if rec.BottleneckMbps <= 0 {
				t.Errorf("path %s has no bottleneck throughput", p)
			}
			if len(rec.Channels) != 1 || rec.Channels[0] != casestudy.LinkChannel {
				t.Errorf("path %s channels = %v", p, rec.Channels)
			}
		}
		// The discovery tree accounts for every path.
		if svc.Tree == nil || svc.Tree.Name != sp.Requester {
			t.Fatalf("service %q tree root = %+v, want %q", svc.AtomicService, svc.Tree, sp.Requester)
		}
		if svc.Tree.PathCount != len(sp.Paths) {
			t.Errorf("service %q tree path count = %d, want %d", svc.AtomicService, svc.Tree.PathCount, len(sp.Paths))
		}
		if svc.Tree.Depth() != svc.Stats.MaxLength+1 {
			t.Errorf("service %q tree depth = %d, want max length %d + 1",
				svc.AtomicService, svc.Tree.Depth(), svc.Stats.MaxLength)
		}
	}

	attr := rep.Attribution
	if attr == nil {
		t.Fatal("no attribution")
	}
	// The availability matches the analysis pipeline's exact number.
	want, err := depend.Analyze(res, depend.ModelExact, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Availability != want.Exact {
		t.Errorf("attribution availability = %v, want exact %v", attr.Availability, want.Exact)
	}
	if attr.CutSetsTotal == 0 || len(attr.CutSets) != attr.CutSetsTotal {
		t.Fatalf("cut sets = %d of %d", len(attr.CutSets), attr.CutSetsTotal)
	}
	// Shares sum to 1 and the ranking is by contribution.
	sum := 0.0
	for i, cs := range attr.CutSets {
		sum += cs.Share
		if i > 0 && cs.Unavailability > attr.CutSets[i-1].Unavailability {
			t.Errorf("cut sets not sorted by unavailability at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cut-set shares sum to %v", sum)
	}
	if attr.ComponentsTotal != want.Components || len(attr.Components) != want.Components {
		t.Errorf("components = %d of %d, want %d", len(attr.Components), attr.ComponentsTotal, want.Components)
	}
	for i, ci := range attr.Components {
		if ci.Class == "" {
			t.Errorf("component %q has no class", ci.Component)
		}
		if ci.Birnbaum < 0 || ci.FussellVesely < -1e-12 || ci.FussellVesely > 1+1e-12 {
			t.Errorf("component %q importance out of range: %+v", ci.Component, ci)
		}
		if i > 0 && ci.Birnbaum > attr.Components[i-1].Birnbaum {
			t.Errorf("components not sorted by Birnbaum at %d", i)
		}
	}
	if len(attr.Classes) == 0 {
		t.Error("no class sensitivities")
	}
}

func TestExplainTopN(t *testing.T) {
	res := usiResult(t)
	full, err := Explain(context.Background(), res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top, err := Explain(context.Background(), res, Options{TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Attribution.CutSets) != 3 || len(top.Attribution.Components) != 3 {
		t.Fatalf("topN kept %d cuts, %d components", len(top.Attribution.CutSets), len(top.Attribution.Components))
	}
	if top.Attribution.CutSetsTotal != full.Attribution.CutSetsTotal ||
		top.Attribution.ComponentsTotal != full.Attribution.ComponentsTotal {
		t.Error("topN changed the pre-truncation totals")
	}
	if !reflect.DeepEqual(top.Attribution.CutSets, full.Attribution.CutSets[:3]) {
		t.Error("topN cut sets are not the leading full ranking")
	}
}

func TestExplainSkipAttribution(t *testing.T) {
	res := usiResult(t)
	rep, err := Explain(context.Background(), res, Options{SkipAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attribution != nil {
		t.Fatal("SkipAttribution still attributed")
	}
	if rep.Stats.Count != res.TotalPaths {
		t.Errorf("stats count = %d", rep.Stats.Count)
	}
}

// TestExplainBudgetError pins the structured budget error surfaced through
// explain: a tiny cut-set limit names the offending atomic service.
func TestExplainBudgetError(t *testing.T) {
	res := usiResult(t)
	_, err := Explain(context.Background(), res, Options{CutLimit: 1})
	be, ok := depend.AsBudgetError(err)
	if !ok {
		t.Fatalf("err = %v, want BudgetError", err)
	}
	if be.Kind != depend.BudgetTransversal || be.AtomicService == "" || be.Limit != 1 {
		t.Fatalf("budget error = %+v", be)
	}
	if !strings.Contains(err.Error(), "transversal expansion exceeds limit 1") {
		t.Fatalf("budget error message changed: %v", err)
	}
	// ServiceStructure.MinimalCutSets on the same structure reports the
	// identical error.
	st, _, _, serr := depend.FromResult(res, depend.ModelExact)
	if serr != nil {
		t.Fatal(serr)
	}
	_, lerr := st.MinimalCutSets(1)
	if lerr == nil || lerr.Error() != err.Error() {
		t.Fatalf("ServiceStructure budget error %q != explain %q", lerr, err)
	}
}

func TestStatistics(t *testing.T) {
	res := usiResult(t)
	for _, sp := range res.Services {
		st := Statistics(sp.Paths)
		if st.Count != len(sp.Paths) || st.Direct+st.Transitive != st.Count {
			t.Fatalf("stats %+v inconsistent for %d paths", st, len(sp.Paths))
		}
		total := 0
		for depth, n := range st.DepthHistogram {
			if depth < st.MinLength || depth > st.MaxLength {
				t.Errorf("histogram depth %d outside [%d, %d]", depth, st.MinLength, st.MaxLength)
			}
			total += n
		}
		if total != st.Count {
			t.Errorf("histogram sums to %d, want %d", total, st.Count)
		}
		if st.MeanLength < float64(st.MinLength) || st.MeanLength > float64(st.MaxLength) {
			t.Errorf("mean %v outside [%d, %d]", st.MeanLength, st.MinLength, st.MaxLength)
		}
	}
	empty := Statistics(nil)
	if empty.Count != 0 || empty.DepthHistogram != nil {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestTreeRender(t *testing.T) {
	res := usiResult(t)
	rep, err := Explain(context.Background(), res, Options{SkipAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	tree := rep.Services[0].Tree
	text := tree.Render()
	if !strings.HasPrefix(text, res.Services[0].Requester+":") {
		t.Errorf("render does not start at requester:\n%s", text)
	}
	if !strings.Contains(text, "terminal=") {
		t.Errorf("render has no terminal marker:\n%s", text)
	}
	if got := strings.Count(text, "\n"); got != tree.Nodes() {
		t.Errorf("render has %d lines, want %d nodes", got, tree.Nodes())
	}
}
