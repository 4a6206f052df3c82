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

// qosFixture builds a diamond with heterogeneous link throughputs:
//
//	t — s1 — a — s2 — srv   (fast branch: 1000 except a—s2 at 100)
//	        s1 — b — s2     (slow branch: 10)
//
// The widest t→srv path is the fast branch, bottlenecked at 100.
func qosFixture(t *testing.T) *core.Result {
	t.Helper()
	m := uml.NewModel("qos")
	p := uml.NewProfile("availability")
	comp, _ := p.DefineAbstractStereotype("Component", uml.MetaclassNone)
	_ = comp.AddAttribute("MTBF", uml.KindReal)
	_ = comp.AddAttribute("MTTR", uml.KindReal)
	dev, _ := p.DefineSubStereotype("Device", uml.MetaclassClass, comp)
	conn, _ := p.DefineSubStereotype("Connector", uml.MetaclassAssociation, comp)
	if err := comp.AddAttribute("throughput", uml.KindReal); err != nil {
		// throughput lives on connectors only; declare on a second profile
		t.Fatal(err)
	}
	if err := m.AddProfile(p); err != nil {
		t.Fatal(err)
	}
	cls, _ := m.AddClass("Node")
	app, _ := cls.Apply(dev)
	_ = app.Set("MTBF", uml.RealValue(10000))
	_ = app.Set("MTTR", uml.RealValue(1))
	_ = app.Set("throughput", uml.RealValue(0)) // unused on devices

	mkAssoc := func(name string, tp float64) *uml.Association {
		a, _ := m.AddAssociation(name, cls, cls)
		capp, err := a.Apply(conn)
		if err != nil {
			t.Fatal(err)
		}
		_ = capp.Set("MTBF", uml.RealValue(1e6))
		_ = capp.Set("MTTR", uml.RealValue(0.1))
		_ = capp.Set("throughput", uml.RealValue(tp))
		return a
	}
	fast := mkAssoc("fast", 1000)
	mid := mkAssoc("mid", 100)
	slow := mkAssoc("slow", 10)

	d := m.NewObjectDiagram("infrastructure")
	for _, n := range []string{"t", "s1", "a", "b", "s2", "srv"} {
		if _, err := d.AddInstance(n, cls); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(x, y string, as *uml.Association) {
		if _, err := d.ConnectByName(x, y, as); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("t", "s1", fast)
	mustLink("s1", "a", fast)
	mustLink("a", "s2", mid)
	mustLink("s1", "b", slow)
	mustLink("b", "s2", slow)
	mustLink("s2", "srv", fast)

	svc, err := service.NewSequential(m, "xfer", "up", "down")
	if err != nil {
		t.Fatal(err)
	}
	mp := mapping.New()
	_ = mp.Add(mapping.Pair{AtomicService: "up", Requester: "t", Provider: "srv"})
	_ = mp.Add(mapping.Pair{AtomicService: "down", Requester: "srv", Provider: "t"})
	gen, err := core.NewGenerator(m, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, mp, "u", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestThroughput(t *testing.T) {
	res := qosFixture(t)
	rep, err := Throughput(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerService) != 2 {
		t.Fatalf("per-service entries = %d", len(rep.PerService))
	}
	for _, at := range rep.PerService {
		// Widest path: via a, bottleneck 100 (not the slow branch's 10).
		if at.Bottleneck != 100 {
			t.Errorf("%s bottleneck = %v, want 100", at.AtomicService, at.Bottleneck)
		}
		if !strings.Contains(at.BestPath, "a") {
			t.Errorf("%s best path = %s, want the fast branch", at.AtomicService, at.BestPath)
		}
	}
	if rep.Service != 100 {
		t.Errorf("service throughput = %v, want 100", rep.Service)
	}
}

func TestThroughputErrors(t *testing.T) {
	if _, err := Throughput(nil); err == nil {
		t.Error("nil result should fail")
	}
	// A model without the throughput attribute is rejected with a pointed
	// error.
	res := analysisFixture(t, 1e6) // availability-only fixture
	if _, err := Throughput(res); err == nil || !strings.Contains(err.Error(), "throughput") {
		t.Errorf("missing throughput error = %v", err)
	}
}

func TestResponsiveness(t *testing.T) {
	res := qosFixture(t)
	// Budget 4 admits only the fast branch (4 hops); the slow branch (4
	// hops too: t-s1-b-s2-srv) — both are 4 hops. Use budget 3 to exclude
	// everything and 4 to include both.
	all, err := Responsiveness(res, ModelExact, 10)
	if err != nil {
		t.Fatal(err)
	}
	if all.PathsWithinBudget != all.PathsTotal {
		t.Errorf("budget 10 should keep all paths: %d/%d", all.PathsWithinBudget, all.PathsTotal)
	}
	if math.Abs(all.Responsiveness-all.Availability) > 1e-12 {
		t.Errorf("unrestricted responsiveness %v != availability %v", all.Responsiveness, all.Availability)
	}
	tight, err := Responsiveness(res, ModelExact, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Responsiveness != 0 {
		t.Errorf("budget 3 admits no path, responsiveness = %v", tight.Responsiveness)
	}
	if tight.PathsWithinBudget != 0 {
		t.Errorf("paths within budget = %d", tight.PathsWithinBudget)
	}
	if _, err := Responsiveness(res, ModelExact, 0); err == nil {
		t.Error("non-positive budget should fail")
	}
	if _, err := Responsiveness(nil, ModelExact, 3); err == nil {
		t.Error("nil result should fail")
	}
}

func TestResponsivenessMonotone(t *testing.T) {
	// Responsiveness is monotone in the budget and bounded by availability.
	res := analysisFixture(t, 1e6)
	prev := 0.0
	for hops := 1; hops <= 8; hops++ {
		rep, err := Responsiveness(res, ModelExact, hops)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Responsiveness+1e-12 < prev {
			t.Errorf("responsiveness not monotone at %d hops: %v < %v", hops, rep.Responsiveness, prev)
		}
		if rep.Responsiveness > rep.Availability+1e-12 {
			t.Errorf("responsiveness %v exceeds availability %v", rep.Responsiveness, rep.Availability)
		}
		prev = rep.Responsiveness
	}
	// Both diamond routes are 4 hops: budget 4 retains full availability,
	// budget 3 leaves nothing.
	rep3, _ := Responsiveness(res, ModelExact, 3)
	rep4, _ := Responsiveness(res, ModelExact, 4)
	if rep3.Responsiveness != 0 {
		t.Errorf("budget 3 responsiveness = %v, want 0", rep3.Responsiveness)
	}
	if math.Abs(rep4.Responsiveness-rep4.Availability) > 1e-12 {
		t.Errorf("budget 4 must retain full availability: %v vs %v",
			rep4.Responsiveness, rep4.Availability)
	}
}

// TestResponsivenessFullBudgetSkipsCompile pins the shortcut for a budget
// that keeps every path: the restricted structure would be the full one, so
// responsiveness is the full availability (==) and the analysis compiles
// one structure, not two. USI at the default budget of 8 hops is that case.
func TestResponsivenessFullBudgetSkipsCompile(t *testing.T) {
	res := usiResult(t)
	before := mDependCompile.With().Value()
	rep, err := Responsiveness(res, ModelExact, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := mDependCompile.With().Value() - before; got != 1 {
		t.Errorf("Responsiveness compiled %d structures, want 1", got)
	}
	if rep.PathsWithinBudget != 10 || rep.PathsTotal != 10 {
		t.Errorf("paths within budget %d of %d, want 10 of 10", rep.PathsWithinBudget, rep.PathsTotal)
	}
	if rep.Responsiveness != rep.Availability {
		t.Errorf("responsiveness %.17g != availability %.17g", rep.Responsiveness, rep.Availability)
	}
}

// TestResponsivenessDroppedPathsRecompile checks that a budget dropping
// some paths still evaluates the restricted structure: a second compile,
// whose exact value is the responsiveness.
func TestResponsivenessDroppedPathsRecompile(t *testing.T) {
	res := usiResult(t)
	before := mDependCompile.With().Value()
	rep, err := Responsiveness(res, ModelExact, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := mDependCompile.With().Value() - before; got != 2 {
		t.Errorf("Responsiveness compiled %d structures, want 2", got)
	}
	if rep.PathsWithinBudget == 0 || rep.PathsWithinBudget >= rep.PathsTotal {
		t.Fatalf("budget 5 keeps %d of %d paths, want some but not all", rep.PathsWithinBudget, rep.PathsTotal)
	}
	if !(rep.Responsiveness < rep.Availability) {
		t.Errorf("responsiveness %.17g not below availability %.17g with paths dropped", rep.Responsiveness, rep.Availability)
	}
}
