package whatif

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"upsim/internal/cache"
	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

// fixture is one independent build of the USI case study with the printing
// (t1 → printS → p2) and backup (t7 → backupS → file servers) composite
// services generated. Each call builds a fresh model, so tests that mutate
// the shared topology do not interfere.
type fixture struct {
	model    *uml.Model
	graph    *topology.Graph
	printing *core.Result
	backup   *core.Result
}

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(m, casestudy.DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	psvc, err := casestudy.PrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	printing, err := gen.Generate(psvc, casestudy.TableIMapping(), "print-t1", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bsvc, err := casestudy.BackupService(m)
	if err != nil {
		t.Fatal(err)
	}
	backup, err := gen.Generate(bsvc, casestudy.BackupMapping(), "backup-t7", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{model: m, graph: gen.Graph(), printing: printing, backup: backup}
}

func newEngine(t *testing.T, f *fixture, c *cache.Cache) *Engine {
	t.Helper()
	e := New(f.graph, c)
	if err := e.Register("printing", "genP", f.printing, depend.ModelExact); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("backup", "genB", f.backup, depend.ModelExact); err != nil {
		t.Fatal(err)
	}
	return e
}

func delta(t *testing.T, rep []ServiceDelta, service string) ServiceDelta {
	t.Helper()
	for _, d := range rep {
		if d.Service == service {
			return d
		}
	}
	t.Fatalf("service %q missing from report %+v", service, rep)
	return ServiceDelta{}
}

func TestImpactTransient(t *testing.T) {
	f := buildFixture(t)
	e := newEngine(t, f, nil)

	// Killing the printer takes the printing service to zero and leaves the
	// backup service untouched.
	rep, err := e.Impact(Failure{Components: []string{"p2"}})
	if err != nil {
		t.Fatal(err)
	}
	p := delta(t, rep.Services, "printing")
	if !p.Affected || p.Failed != 0 || p.Delta != -p.Baseline {
		t.Fatalf("printing under p2 failure = %+v, want affected, failed 0", p)
	}
	b := delta(t, rep.Services, "backup")
	if b.Affected || b.Failed != b.Baseline || b.Delta != 0 {
		t.Fatalf("backup under p2 failure = %+v, want unaffected", b)
	}

	// Impact is transient: asking again gives the same answer, and the
	// baseline is unchanged.
	rep2, err := e.Impact(Failure{Components: []string{"p2"}})
	if err != nil {
		t.Fatal(err)
	}
	if delta(t, rep2.Services, "printing") != p {
		t.Fatalf("second Impact differs: %+v vs %+v", rep2.Services, rep.Services)
	}

	if _, err := e.Impact(Failure{}); err == nil {
		t.Fatal("empty failure accepted")
	}
	if _, err := e.Impact(Failure{Links: []string{"nosuch--pair"}}); err == nil {
		t.Fatal("unknown link accepted")
	}
	if _, err := e.Impact(Failure{Links: []string{"malformed"}}); err == nil {
		t.Fatal("malformed link accepted")
	}
}

func TestImpactLinkByEndpoints(t *testing.T) {
	f := buildFixture(t)
	e := newEngine(t, f, nil)

	// Fail the first hop of the first discovered printing path, addressed by
	// its endpoints; this must resolve to the same components as the fully
	// qualified link ids.
	p0 := f.printing.Services[0].Paths[0]
	a, b, id := p0.Nodes[0], p0.Nodes[1], p0.Edges[0]
	byEndpoints, err := e.Impact(Failure{Links: []string{a + "--" + b}})
	if err != nil {
		t.Fatal(err)
	}
	ids := f.graph.EdgesBetween(a, b)
	comps := make([]string, 0, len(ids))
	for _, eid := range ids {
		comps = append(comps, depend.LinkComponentID(a, b, eid))
	}
	byID, err := e.Impact(Failure{Components: comps})
	if err != nil {
		t.Fatal(err)
	}
	dp, di := delta(t, byEndpoints.Services, "printing"), delta(t, byID.Services, "printing")
	if dp != di {
		t.Fatalf("endpoint-addressed failure %+v != id-addressed %+v", dp, di)
	}
	if !dp.Affected || dp.Delta >= 0 {
		t.Fatalf("first-hop failure should reduce availability: %+v", dp)
	}

	// The fully qualified form passes through resolve untouched.
	one, err := e.Impact(Failure{Links: []string{depend.LinkComponentID(a, b, id)}})
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(t, one.Services, "printing"); !d.Affected {
		t.Fatalf("qualified link id did not resolve: %+v", d)
	}
}

// TestApplyMatchesImpact pins the core equivalence: permanently removing a
// component (Apply, in-place kernel patch) must yield exactly the
// availability that transiently forcing it down (Impact, Shannon
// conditioning) predicts.
func TestApplyMatchesImpact(t *testing.T) {
	p0 := buildFixture(t).printing.Services[0].Paths[0]
	targets := []Failure{
		{Components: []string{p0.Nodes[1]}},                 // intermediate device
		{Links: []string{p0.Nodes[1] + "--" + p0.Nodes[2]}}, // mid-path link(s)
	}
	for _, f := range targets {
		fxA, fxB := buildFixture(t), buildFixture(t)
		eImpact, eApply := newEngine(t, fxA, nil), newEngine(t, fxB, nil)
		want, err := eImpact.Impact(f)
		if err != nil {
			t.Fatal(err)
		}
		var deltas []Delta
		for _, c := range f.Components {
			deltas = append(deltas, Delta{Op: OpRemoveNode, Node: c})
		}
		for _, l := range f.Links {
			a, b, _ := strings.Cut(l, "--")
			deltas = append(deltas, Delta{Op: OpRemoveLink, A: a, B: b})
		}
		got, err := eApply.Apply(deltas...)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want.Services {
			g := delta(t, got.Services, w.Service)
			if math.Abs(g.Failed-w.Failed) > 1e-12 || g.Affected != w.Affected {
				t.Errorf("%v: Apply %s = %+v, Impact predicts %+v", f, w.Service, g, w)
			}
		}
		if got.PatchOps == 0 {
			t.Errorf("%v: no patch ops recorded", f)
		}
	}
}

func TestApplyRemoveProviderKillsService(t *testing.T) {
	f := buildFixture(t)
	e := newEngine(t, f, nil)
	rep, err := e.Apply(Delta{Op: OpRemoveNode, Node: "p2"})
	if err != nil {
		t.Fatal(err)
	}
	p := delta(t, rep.Services, "printing")
	if !p.Dead || p.Failed != 0 {
		t.Fatalf("printing after provider removal = %+v, want dead", p)
	}
	if b := delta(t, rep.Services, "backup"); b.Affected || b.Dead {
		t.Fatalf("backup disturbed by p2 removal: %+v", b)
	}
	// The topology really changed.
	if f.graph.HasNode("p2") {
		t.Fatal("p2 still in graph")
	}
	// A dead service stays dead under further transient queries, without
	// failing the whole report.
	imp, err := e.Impact(Failure{Components: []string{"t7"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(t, imp.Services, "printing"); !d.Dead || d.Failed != 0 {
		t.Fatalf("dead service delta = %+v", d)
	}
}

// TestApplyInvalidatesOnlyAffectedGenerations is the acceptance test for
// targeted cache invalidation: a delta touching only the printing service
// must evict the genP key family and leave every genB entry warm.
func TestApplyInvalidatesOnlyAffectedGenerations(t *testing.T) {
	f := buildFixture(t)
	c := cache.New(32)
	keys := []string{
		"genP",
		"avail|genP|model=exact",
		"explain|genP|model=exact|top=5",
		"genB",
		"avail|genB|model=exact",
		"qos|genB|hops=3",
	}
	for _, k := range keys {
		c.Add(k, k)
	}
	e := newEngine(t, f, c)

	rep, err := e.Apply(Delta{Op: OpRemoveNode, Node: "p2"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InvalidatedKeys != 3 {
		t.Fatalf("InvalidatedKeys = %d, want 3 (the genP family)", rep.InvalidatedKeys)
	}
	if len(rep.AffectedGenerations) != 1 || rep.AffectedGenerations[0] != "genP" {
		t.Fatalf("AffectedGenerations = %v, want [genP]", rep.AffectedGenerations)
	}
	for _, k := range keys[:3] {
		if _, ok := c.Get(k); ok {
			t.Errorf("affected key %q survived", k)
		}
	}
	for _, k := range keys[3:] {
		if _, ok := c.Get(k); !ok {
			t.Errorf("unaffected key %q was evicted", k)
		}
	}
}

func TestApplyAddLinkCrossesPatchBoundary(t *testing.T) {
	f := buildFixture(t)
	c := cache.New(32)
	c.Add("avail|genP|model=exact", 1)
	c.Add("avail|genB|model=exact", 2)
	e := newEngine(t, f, c)

	// Adding an isolated node affects nothing.
	rep, err := e.Apply(Delta{Op: OpAddNode, Node: "spare1", Class: "Device"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecompileServices != 0 || rep.InvalidatedKeys != 0 {
		t.Fatalf("isolated node invalidated something: %+v", rep)
	}

	// Wiring it into the network can create paths discovery never saw:
	// every service in the connected component must re-generate.
	rep, err = e.Apply(Delta{Op: OpAddLink, A: "spare1", B: f.printing.Services[0].Paths[0].Nodes[1], Label: "utp"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecompileServices == 0 {
		t.Fatal("link addition did not mark any service for re-generation")
	}
	p := delta(t, rep.Services, "printing")
	if !p.RecompileRequired {
		t.Fatalf("printing not marked stale: %+v", p)
	}
	if rep.InvalidatedKeys == 0 {
		t.Fatal("stale generations kept their cache entries")
	}
	// Stale services are excluded from analyses until re-registered.
	imp, err := e.Impact(Failure{Components: []string{"p2"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(t, imp.Services, "printing"); !d.RecompileRequired || d.Affected {
		t.Fatalf("stale service analysed anyway: %+v", d)
	}
	var stale int
	for _, s := range e.Services() {
		if s.Stale {
			stale++
			if s.StaleReason == "" {
				t.Error("stale service without reason")
			}
		}
	}
	if stale != rep.RecompileServices {
		t.Fatalf("Services() reports %d stale, Apply reported %d", stale, rep.RecompileServices)
	}

	// Re-registering with a fresh generation clears staleness.
	if err := e.Register("printing", "genP2", f.printing, depend.ModelExact); err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Services() {
		if s.Service == "printing" && s.Stale {
			t.Fatal("re-registered service still stale")
		}
	}
}

func TestApplyErrors(t *testing.T) {
	f := buildFixture(t)
	e := newEngine(t, f, nil)
	if _, err := e.Apply(); err == nil {
		t.Fatal("empty delta list accepted")
	}
	if _, err := e.Apply(Delta{Op: "explode"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := e.Apply(Delta{Op: OpRemoveNode, Node: "nosuch"}); err == nil {
		t.Fatal("removing unknown node accepted")
	}
	if _, err := e.Apply(Delta{Op: OpRemoveLink, A: "t1", B: "p2"}); err == nil {
		t.Fatal("removing non-existent link accepted")
	}
	c1c2 := 0 // edge 0 joins c1 and c2
	if _, err := e.Apply(Delta{Op: OpRemoveLink, A: "c1", B: "d4", EdgeID: &c1c2}); err == nil {
		t.Fatal("removing an edge of another pair accepted")
	}
}

func TestCriticalRanking(t *testing.T) {
	f := buildFixture(t)
	e := newEngine(t, f, nil)
	crit, err := e.Critical(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(crit) == 0 {
		t.Fatal("no critical components")
	}
	// Requester, provider and print server sit on every path of their
	// services: all three must rank as single points of failure.
	spof := make(map[string]bool)
	for _, cc := range crit {
		if cc.SinglePointOfFailure {
			spof[cc.Component] = true
		}
	}
	for _, want := range []string{"t1", "p2", "printS"} {
		if !spof[want] {
			t.Errorf("%s not ranked as single point of failure (got %v)", want, spof)
		}
	}
	// SPOFs sort before pair-only members, and the join carried the
	// explain importances for at least the SPOFs.
	sawPairOnly := false
	for _, cc := range crit {
		if !cc.SinglePointOfFailure {
			sawPairOnly = true
		} else {
			if sawPairOnly {
				t.Fatal("single point of failure ranked below a pair-only member")
			}
			if cc.Birnbaum <= 0 {
				t.Errorf("SPOF %s has Birnbaum %v, want > 0", cc.Component, cc.Birnbaum)
			}
		}
		if len(cc.Services) == 0 {
			t.Errorf("%s has no services", cc.Component)
		}
	}
	// top bounds the result.
	top3, err := e.Critical(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top3) != 3 {
		t.Fatalf("Critical(top=3) returned %d", len(top3))
	}
}

func TestInvalidate(t *testing.T) {
	f := buildFixture(t)
	c := cache.New(32)
	c.Add("avail|genP|model=exact", 1)
	c.Add("explain|genP|model=exact|top=5", 2)
	c.Add("avail|genB|model=exact", 3)
	e := newEngine(t, f, c)

	// Unknown names mark and evict nothing.
	if n := e.Invalidate("drift", "ghost"); n != 0 {
		t.Fatalf("invalidating an unknown service evicted %d entries", n)
	}
	if n := e.Invalidate("drift", "printing"); n != 2 {
		t.Fatalf("evicted = %d, want the printing generation's 2 entries", n)
	}
	if _, ok := c.Get("avail|genB|model=exact"); !ok {
		t.Fatal("the backup generation's entry was evicted")
	}
	for _, s := range e.Services() {
		if stale := s.Service == "printing"; s.Stale != stale || (stale && s.StaleReason != "drift") {
			t.Fatalf("service %+v after invalidating printing", s)
		}
	}
	// A stale service is excluded from analyses until re-registered.
	imp, err := e.Impact(Failure{Components: []string{"p2"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(t, imp.Services, "printing"); !d.RecompileRequired || d.Affected {
		t.Fatalf("stale service analysed anyway: %+v", d)
	}
}

func TestRegisterReplaces(t *testing.T) {
	f := buildFixture(t)
	e := newEngine(t, f, nil)
	if n := len(e.Services()); n != 2 {
		t.Fatalf("services = %d", n)
	}
	if err := e.Register("printing", "genP-v2", f.printing, depend.ModelExact); err != nil {
		t.Fatal(err)
	}
	ss := e.Services()
	if len(ss) != 2 {
		t.Fatalf("re-register duplicated: %d services", len(ss))
	}
	found := false
	for _, s := range ss {
		if s.Service == "printing" {
			found = true
			if s.GenKey != "genP-v2" {
				t.Fatalf("genKey = %q", s.GenKey)
			}
		}
	}
	if !found {
		t.Fatal("printing missing after re-register")
	}
	if err := e.Register("bad", "k", &core.Result{}, depend.ModelExact); err == nil {
		t.Fatal("registering empty result succeeded")
	}
}

// FuzzApplyDeltas drives Apply with short delta sequences over the case
// study: each delta is four bytes (op, two names from the fixture's nodes
// plus a bogus and an empty one, an edge ID that is omitted or explicit and
// possibly unknown). Per delta, a rejected Apply must leave the graph as it
// was, and an accepted one may remove only edges that join the named pair
// or touch the removed node. After the sequence, every live service's
// post-change availability must equal Impact of the same removals on a
// fresh engine, and Critical must report the importances of the patched
// kernels.
func FuzzApplyDeltas(f *testing.F) {
	names := append(buildFixture(f).graph.NodeNames(), "ghost", "")
	idx := func(name string) byte {
		for i, n := range names {
			if n == name {
				return byte(i)
			}
		}
		panic("fixture has no node " + name)
	}
	const omitted = 0xff
	f.Add([]byte{1, idx("c1"), idx("d4"), omitted}) // every parallel of a pair
	f.Add([]byte{1, idx("c1"), idx("d4"), 0})       // edge 0 joins c1 and c2
	f.Add([]byte{1, idx("ghost"), idx("d4"), 4})    // edge 4 joins c1 and d4
	f.Add([]byte{1, idx("d4"), idx("c1"), 4, 0, idx("p2"), 0, 0})
	f.Add([]byte{0, idx("d2"), 0, 0, 3, idx("c1"), idx("c2"), 0, 1, idx("c1"), idx("c2"), omitted})
	f.Add([]byte{2, idx("ghost"), 0, 0, 5, 0, 0, 0, 0, idx("ghost"), 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := buildFixture(t)
		e := newEngine(t, fx, nil)
		current := map[string]float64{}
		for _, s := range e.Services() {
			current[s.Service] = s.Baseline
		}
		var removed []string
		for i := 0; i+4 <= len(data) && i < 16; i += 4 {
			op, a, b := data[i]%6, names[int(data[i+1])%len(names)], names[int(data[i+2])%len(names)]
			var d Delta
			switch op {
			case 0:
				d = Delta{Op: OpRemoveNode, Node: a}
			case 1:
				d = Delta{Op: OpRemoveLink, A: a, B: b}
				if data[i+3] != omitted {
					id := int(data[i+3]) % 40
					d.EdgeID = &id
				}
			case 2:
				d = Delta{Op: OpAddNode, Node: a + "x", Class: "Device"}
			case 3:
				d = Delta{Op: OpAddLink, A: a, B: b, Label: "utp"}
			case 4:
				d = Delta{Op: "explode", Node: a}
			default:
				d = Delta{Op: OpRemoveNode, Node: a + "?"}
			}
			before := fx.graph.Edges()
			nodesBefore := fx.graph.NodeNames()
			rep, err := e.Apply(d)
			if err != nil {
				if got := fx.graph.Edges(); !reflect.DeepEqual(got, before) || !reflect.DeepEqual(fx.graph.NodeNames(), nodesBefore) {
					t.Fatalf("rejected %+v (%v) changed the graph", d, err)
				}
				continue
			}
			for _, edge := range before {
				if _, ok := fx.graph.Edge(edge.ID); ok {
					continue
				}
				switch {
				case d.Op == OpRemoveLink && endpointKey(edge.A, edge.B) == endpointKey(d.A, d.B):
				case d.Op == OpRemoveNode && (edge.A == d.Node || edge.B == d.Node):
				default:
					t.Fatalf("%+v removed edge %d (%s--%s)", d, edge.ID, edge.A, edge.B)
				}
				removed = append(removed, depend.LinkComponentID(edge.A, edge.B, edge.ID))
			}
			if d.Op == OpRemoveNode {
				removed = append(removed, d.Node)
			}
			for _, s := range rep.Services {
				if s.Affected && !s.RecompileRequired {
					current[s.Service] = s.Failed
				}
			}
		}

		live := map[string]bool{}
		for _, s := range e.Services() {
			live[s.Service] = !s.Stale
		}
		if len(removed) > 0 {
			want, err := newEngine(t, buildFixture(t), nil).Impact(Failure{Components: removed})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range want.Services {
				if live[w.Service] && math.Abs(current[w.Service]-w.Failed) > 1e-12 {
					t.Errorf("after removing %v: %s = %v by Apply, %v by Impact", removed, w.Service, current[w.Service], w.Failed)
				}
			}
		}

		crit, err := e.Critical(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cc := range crit {
			var birnbaum, fv float64
			for _, r := range e.services {
				if r.stale || r.cs.Err() != nil || !slices.Contains(cc.Services, r.name) {
					continue
				}
				up, down, err := r.cs.Importances(r.avail)
				if err != nil {
					t.Fatal(err)
				}
				base, err := r.cs.Exact(r.avail)
				if err != nil {
					t.Fatal(err)
				}
				i := slices.Index(r.cs.Components(), cc.Component)
				birnbaum = max(birnbaum, up[i]-down[i])
				if base != 1 {
					fv = max(fv, ((1-base)-(1-up[i]))/(1-base))
				}
			}
			if cc.Birnbaum != birnbaum || cc.FussellVesely != fv {
				t.Errorf("after removing %v: %s ranked at Birnbaum %v, Fussell–Vesely %v; live kernels give %v, %v",
					removed, cc.Component, cc.Birnbaum, cc.FussellVesely, birnbaum, fv)
			}
		}
	})
}
