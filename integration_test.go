package upsim

// Cross-module integration and property tests: random topologies and
// mappings driven through the whole pipeline, checking the invariants that
// Definition 2 and Section V-E promise, plus failure-injection scenarios.

import (
	"math/rand"
	"testing"

	"upsim/internal/modelgen"
	"upsim/internal/topology"
)

// randomInfrastructure converts a generated topology graph into a full UML
// model with the availability profile applied, via the modelgen bridge.
func randomInfrastructure(t *testing.T, g *topology.Graph) *Model {
	t.Helper()
	m, err := modelgen.Build("rand", g, modelgen.Params{
		Default: modelgen.ClassParams{MTBF: 10000, MTTR: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPipelinePropertyRandomTopologies drives random connected graphs
// through the full pipeline and checks the UPSIM invariants:
//
//   - UPSIM nodes ⊆ infrastructure nodes,
//   - requester and provider of every atomic service are in the UPSIM,
//   - every UPSIM link joins UPSIM nodes and exists in the infrastructure,
//   - the UPSIM is connected whenever it is non-empty,
//   - UPSIM instances expose the class properties (Section V-E),
//   - the traversed merge is a subgraph of the induced merge.
func TestPipelinePropertyRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(12)
		density := rng.Float64() * 0.08
		seed := rng.Int63()
		g, err := topology.RandomConnected(n, density, seed)
		if err != nil {
			t.Fatal(err)
		}
		m := randomInfrastructure(t, g)
		names := g.NodeNames()
		req := names[rng.Intn(len(names))]
		prov := names[rng.Intn(len(names))]
		if req == prov {
			continue
		}
		svc, err := NewSequentialService(m, "svc", "a1", "a2")
		if err != nil {
			t.Fatal(err)
		}
		mp := NewMapping()
		if err := mp.Add(Pair{AtomicService: "a1", Requester: req, Provider: prov}); err != nil {
			t.Fatal(err)
		}
		if err := mp.Add(Pair{AtomicService: "a2", Requester: prov, Provider: req}); err != nil {
			t.Fatal(err)
		}
		gen, err := NewGenerator(m, "infrastructure")
		if err != nil {
			t.Fatal(err)
		}
		res, err := gen.Generate(svc, mp, "u", Options{})
		if err != nil {
			t.Fatalf("trial %d (n=%d, density=%.3f, %s->%s): %v", trial, n, density, req, prov, err)
		}

		infra := map[string]bool{}
		for _, nn := range names {
			infra[nn] = true
		}
		for _, nn := range res.NodeNames() {
			if !infra[nn] {
				t.Fatalf("UPSIM node %q not in infrastructure", nn)
			}
		}
		if !res.Graph.HasNode(req) || !res.Graph.HasNode(prov) {
			t.Fatalf("endpoints missing from UPSIM")
		}
		if res.Graph.NumNodes() > 0 && !connected(res.Graph) {
			t.Fatalf("UPSIM disconnected")
		}
		for _, l := range res.UPSIM.Links() {
			a, b := l.Ends()
			if !res.Graph.HasNode(a.Name()) || !res.Graph.HasNode(b.Name()) {
				t.Fatalf("UPSIM link with missing endpoint")
			}
			if len(res.Source.LinksBetween(a.Name(), b.Name())) == 0 {
				t.Fatalf("UPSIM link %s not in infrastructure", l)
			}
		}
		for _, inst := range res.UPSIM.Instances() {
			if v, ok := inst.Property("MTBF"); !ok || v.AsReal() != 10000 {
				t.Fatalf("instance %s lost its properties", inst)
			}
		}

		trav, err := gen.Generate(svc, mp, "u-trav", Options{Merge: MergeTraversed})
		if err != nil {
			t.Fatal(err)
		}
		if trav.Graph.NumNodes() != res.Graph.NumNodes() {
			t.Fatalf("merge semantics must not change the node set")
		}
		if trav.Graph.NumEdges() > res.Graph.NumEdges() {
			t.Fatalf("traversed merge has more links than induced")
		}

		// The availability analysis runs end to end and stays in bounds,
		// bracketed by Esary–Proschan and confirmed by Monte Carlo.
		st, avail, err := StructureOf(res, ModelExact)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := st.Exact(avail)
		if err != nil {
			t.Fatal(err)
		}
		if exact < 0 || exact > 1 {
			t.Fatalf("availability %v out of range", exact)
		}
		if b, err := st.EsaryProschan(avail, 0); err == nil {
			if b.Lower > exact+1e-9 || exact > b.Upper+1e-9 {
				t.Fatalf("bounds [%v, %v] miss exact %v", b.Lower, b.Upper, exact)
			}
		}
	}
}

// TestFailureInjection removes components from the infrastructure and
// verifies the pipeline degrades as the paper predicts: losing a redundant
// path shrinks the UPSIM, losing the last path is an error.
func TestFailureInjection(t *testing.T) {
	m, err := USIModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := USIPrintingService(m)
	if err != nil {
		t.Fatal(err)
	}

	// Build a degraded copy: the same topology with the c1—c2 core link
	// removed (maintenance). The t1→printS pair loses its redundant path
	// but stays connected through c1—d4.
	degraded, err := USIModel()
	if err != nil {
		t.Fatal(err)
	}
	d, _ := degraded.Diagram(USIDiagramName)
	full := d.Links()
	rebuilt := degraded.NewObjectDiagram("degraded")
	for _, inst := range d.Instances() {
		if _, err := rebuilt.AddInstance(inst.Name(), inst.Classifier()); err != nil {
			t.Fatal(err)
		}
	}
	removed := 0
	for _, l := range full {
		a, b := l.Ends()
		if (a.Name() == "c1" && b.Name() == "c2") || (a.Name() == "c2" && b.Name() == "c1") {
			removed++
			continue
		}
		if _, err := rebuilt.ConnectByName(a.Name(), b.Name(), l.Association()); err != nil {
			t.Fatal(err)
		}
	}
	if removed != 1 {
		t.Fatalf("core links removed = %d, want 1", removed)
	}
	dsvc, err := USIPrintingService(degraded)
	if err != nil {
		t.Fatal(err)
	}

	genFull, err := NewGenerator(m, USIDiagramName)
	if err != nil {
		t.Fatal(err)
	}
	genDeg, err := NewGenerator(degraded, "degraded")
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := genFull.Generate(svc, USITableIMapping(), "full", Options{})
	if err != nil {
		t.Fatal(err)
	}
	resDeg, err := genDeg.Generate(dsvc, USITableIMapping(), "deg", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resDeg.TotalPaths >= resFull.TotalPaths {
		t.Errorf("degraded paths = %d, full = %d", resDeg.TotalPaths, resFull.TotalPaths)
	}
	repFull, err := Analyze(resFull, ModelExact, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	repDeg, err := Analyze(resDeg, ModelExact, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if repDeg.Exact > repFull.Exact {
		t.Errorf("losing redundancy must not improve availability: %v > %v",
			repDeg.Exact, repFull.Exact)
	}

	// Severing the only distribution uplink disconnects the user entirely.
	cut := degraded.NewObjectDiagram("cut")
	for _, inst := range d.Instances() {
		if _, err := cut.AddInstance(inst.Name(), inst.Classifier()); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range full {
		a, b := l.Ends()
		if (a.Name() == "d1" && b.Name() == "c1") || (a.Name() == "c1" && b.Name() == "d1") {
			continue
		}
		if _, err := cut.ConnectByName(a.Name(), b.Name(), l.Association()); err != nil {
			t.Fatal(err)
		}
	}
	genCut, err := NewGenerator(degraded, "cut")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := genCut.Generate(dsvc, USITableIMapping(), "cut", Options{}); err == nil {
		t.Error("disconnected requester must fail generation")
	}
	res, err := genCut.Generate(dsvc, USITableIMapping(), "cut2", Options{AllowDisconnected: true})
	if err != nil {
		t.Fatal(err)
	}
	// The printer-side pairs still have paths; the client-side pair has
	// none.
	if ps, _ := res.PathsFor("Request printing"); len(ps) != 0 {
		t.Errorf("cut client still has %d paths", len(ps))
	}
	if ps, _ := res.PathsFor("Login to printer"); len(ps) == 0 {
		t.Error("printer-side pair should still have paths")
	}
}

// topologyCampus is a small generated campus used by facade tests.
func topologyCampus() (*topology.Graph, error) {
	return topology.Campus(topology.CampusParams{
		EdgeSwitches: 2, ClientsPerEdge: 2, ServersPerSwitch: 1, RedundantCore: false,
	})
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
