package modelgen

import (
	"strings"
	"testing"

	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/mapping"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/topology"
)

func TestBuildFromCampus(t *testing.T) {
	g, err := topology.Campus(topology.CampusParams{
		EdgeSwitches: 2, ClientsPerEdge: 2, ServersPerSwitch: 1, RedundantCore: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build("campus", g, Params{
		Classes: map[string]ClassParams{
			"Client": {MTBF: 3000, MTTR: 24},
			"Server": {MTBF: 60000, MTTR: 0.1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("generated model invalid: %v", err)
	}
	d, ok := m.Diagram("infrastructure")
	if !ok {
		t.Fatal("diagram missing")
	}
	if d.NumInstances() != g.NumNodes() || d.NumLinks() != g.NumEdges() {
		t.Errorf("diagram = %d/%d, graph = %d/%d",
			d.NumInstances(), d.NumLinks(), g.NumNodes(), g.NumEdges())
	}
	// Parameterised classes apply; defaults fill the rest.
	client := m.MustClass("Client")
	if v, _ := client.Property("MTBF"); v.AsReal() != 3000 {
		t.Errorf("Client MTBF = %v", v)
	}
	core1 := m.MustClass("Core")
	if v, _ := core1.Property("MTBF"); v.AsReal() != 100000 {
		t.Errorf("Core default MTBF = %v", v)
	}
	// The redundant core pair produced a dedicated parallel association.
	foundParallel := false
	for _, a := range m.Associations() {
		if strings.HasPrefix(a.Name(), "parallel-") {
			foundParallel = true
		}
	}
	if !foundParallel {
		t.Error("parallel core link association missing")
	}
	// Links carry connector and communication attributes.
	ls := d.Links()
	if v, ok := ls[0].Property("throughput"); !ok || v.AsReal() != 1000 {
		t.Errorf("link throughput = %v, %v", v, ok)
	}
}

func TestBuildDrivesFullPipeline(t *testing.T) {
	// The future-work scenario: a fat-tree "cloud" runs through Steps 1-8
	// and the Section VII analysis end to end.
	g, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build("cloud", g, Params{
		Classes: map[string]ClassParams{
			"Host": {MTBF: 20000, MTTR: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.NewSequential(m, "vm-to-storage", "write", "ack")
	if err != nil {
		t.Fatal(err)
	}
	mp := mapping.New()
	if err := mp.Add(mapping.Pair{AtomicService: "write", Requester: "h0-0-0", Provider: "h3-1-1"}); err != nil {
		t.Fatal(err)
	}
	if err := mp.Add(mapping.Pair{AtomicService: "ack", Requester: "h3-1-1", Provider: "h0-0-0"}); err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(m, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	// A hop budget of 6 restricts discovery to valley-free up-down routes
	// (host-edge-agg-core-agg-edge-host); unbounded enumeration would also
	// return the 1360 detour paths.
	res, err := gen.Generate(svc, mp, "cloud-upsim", core.Options{
		Paths: pathdisc.Options{MaxDepth: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fat-tree k=4, cross-pod: 2 aggregation choices × 2 cores = 4 up-down
	// paths per direction.
	if got, _ := res.PathsFor("write"); len(got) != 4 {
		t.Errorf("cross-pod up-down paths = %d, want 4", len(got))
	}
	if !connected(res.Graph) {
		t.Error("cloud UPSIM disconnected")
	}
	rep, err := depend.Analyze(res, depend.ModelExact, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exact <= 0 || rep.Exact > 1 {
		t.Errorf("cloud availability = %v", rep.Exact)
	}
	// The exact engine handles the heavy core sharing: far below the naive
	// RBD which multiplies the shared hosts twice.
	if rep.Exact > rep.RBDApprox {
		t.Errorf("exact %v above RBD %v", rep.Exact, rep.RBDApprox)
	}
	tp, err := depend.Throughput(res)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Service != 1000 {
		t.Errorf("cloud throughput = %v", tp.Service)
	}
}

func TestFatTreeScenarioK8SpansThreeWords(t *testing.T) {
	// The k=8 scatter scenario runs the whole pipeline into a kernel whose
	// bitset arenas go beyond the ≤2-word hand-made corpora.
	sc, err := FatTreeScenario(8)
	if err != nil {
		t.Fatal(err)
	}
	act, ok := sc.Model.Activity(sc.Service)
	if !ok {
		t.Fatalf("scenario activity %q missing", sc.Service)
	}
	svc, err := service.FromActivity(act)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(sc.Model, sc.Diagram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, sc.Mapping, "scatter-upsim", core.Options{Paths: sc.Paths})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-pod up-down routes in a k-ary fat-tree: (k/2)² per pair.
	if got, _ := res.PathsFor("write-pod1"); len(got) != 16 {
		t.Errorf("cross-pod up-down paths = %d, want 16", len(got))
	}
	_, cs, _, err := depend.FromResult(res, depend.ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Words() < 3 {
		t.Errorf("compiled kernel spans %d words over %d components, want >= 3 words",
			cs.Words(), cs.NumComponents())
	}
}

func TestBuildErrors(t *testing.T) {
	g := topology.New()
	for _, n := range []string{"n0", "n1", "n2"} {
		_ = g.AddNode(n, "Node")
	}
	_, _ = g.AddEdge("n0", "n1", "")
	_, _ = g.AddEdge("n1", "n2", "")
	if _, err := Build("", g, Params{}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := Build("x", nil, Params{}); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := Build("ok", g, Params{}); err != nil {
		t.Errorf("chain build failed: %v", err)
	}
}

// connected reports whether every node of g is reachable from its first.
func connected(g *topology.Graph) bool {
	names := g.NodeNames()
	if len(names) == 0 {
		return true
	}
	seen := map[string]bool{names[0]: true}
	for stack := names[:1:1]; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.IncidentEdges(n) {
			e, _ := g.Edge(id)
			if o := e.Other(n); !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return len(seen) == len(names)
}
