package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"upsim/internal/mapping"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// oracleMerge is Step 8 over name-keyed sets: the instances of src that
// appear on some path, and the links of src whose both ends are kept
// (MergeInduced) or that some path traverses (MergeTraversed), each list
// in src order and rendered as signatures.
func oracleMerge(src *uml.ObjectDiagram, services []ServicePaths, merge MergeSemantics) (insts, links []string) {
	keep := map[string]bool{}
	edges := map[int]bool{}
	for _, sp := range services {
		for _, p := range sp.Paths {
			for _, n := range p.Nodes {
				keep[n] = true
			}
			for _, e := range p.Edges {
				edges[e] = true
			}
		}
	}
	for i := 0; i < src.NumInstances(); i++ {
		if inst := src.InstanceAt(i); keep[inst.Name()] {
			insts = append(insts, inst.Signature())
		}
	}
	for i := 0; i < src.NumLinks(); i++ {
		l := src.LinkAt(i)
		a, b := l.Ends()
		if (merge == MergeInduced && keep[a.Name()] && keep[b.Name()]) || (merge == MergeTraversed && edges[i]) {
			links = append(links, l.Signature())
		}
	}
	return insts, links
}

func signatures(d *uml.ObjectDiagram) (insts, links []string) {
	for i := 0; i < d.NumInstances(); i++ {
		insts = append(insts, d.InstanceAt(i).Signature())
	}
	for i := 0; i < d.NumLinks(); i++ {
		links = append(links, d.LinkAt(i).Signature())
	}
	return insts, links
}

// TestMergeMatchesOracle: on the churn campus, for random perspectives
// under both merge semantics and bounded, unbounded and ranked discovery,
// the UPSIM has exactly the oracle's instances and links, in the
// infrastructure's order, and its graph has the same size.
func TestMergeMatchesOracle(t *testing.T) {
	_, m := churnCampus(t)
	act, ok := m.Activity("rpc")
	if !ok {
		t.Fatal("campus model lacks the rpc activity")
	}
	svc, err := service.FromActivity(act)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(m, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 24; trial++ {
		tn := fmt.Sprintf("t%d", 1+rng.Intn(60))
		s1, s2 := fmt.Sprintf("srv%d", 1+rng.Intn(8)), fmt.Sprintf("srv%d", 1+rng.Intn(8))
		if s1 == s2 {
			continue
		}
		mp := mapping.New()
		for _, p := range []mapping.Pair{
			{AtomicService: "request", Requester: tn, Provider: s1},
			{AtomicService: "process", Requester: s1, Provider: s2},
			{AtomicService: "reply", Requester: s2, Provider: tn},
		} {
			if err := mp.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, paths := range []pathdisc.Options{{}, {MaxDepth: 6}, {K: 2}} {
			for _, merge := range []MergeSemantics{MergeInduced, MergeTraversed} {
				res, err := g.Generate(svc, mp, "u", Options{Merge: merge, Paths: paths})
				if err != nil {
					t.Fatal(err)
				}
				wantInst, wantLinks := oracleMerge(g.Diagram(), res.Services, merge)
				gotInst, gotLinks := signatures(res.UPSIM)
				if !slices.Equal(gotInst, wantInst) || !slices.Equal(gotLinks, wantLinks) {
					t.Fatalf("%s→%s→%s %+v %v: UPSIM\n%v\n%v\nwant\n%v\n%v",
						tn, s1, s2, paths, merge, gotInst, gotLinks, wantInst, wantLinks)
				}
				if res.Graph.NumNodes() != len(wantInst) || res.Graph.NumEdges() != len(wantLinks) {
					t.Fatalf("graph %d nodes, %d edges; want %d, %d",
						res.Graph.NumNodes(), res.Graph.NumEdges(), len(wantInst), len(wantLinks))
				}
			}
		}
	}
}

// TestUnknownMergeRejectedUpFront: an unknown Options.Merge fails before
// any pipeline step — on a diagram without links, where no merge link loop
// would ever see it, and ahead of a Step 6 error.
func TestUnknownMergeRejectedUpFront(t *testing.T) {
	m := uml.NewModel("flat")
	node, err := m.AddClass("Node")
	if err != nil {
		t.Fatal(err)
	}
	d := m.NewObjectDiagram("infrastructure")
	for _, n := range []string{"t1", "srv"} {
		if _, err := d.AddInstance(n, node); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := service.NewSequential(m, "svc", "call", "answer")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(m, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	mp := mapping.New()
	for _, p := range []mapping.Pair{
		{AtomicService: "call", Requester: "t1", Provider: "srv"},
		{AtomicService: "answer", Requester: "srv", Provider: "t1"},
	} {
		if err := mp.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Generate(svc, mp, "ok", Options{AllowDisconnected: true}); err != nil {
		t.Fatalf("a known merge on the link-free diagram: %v", err)
	}
	const want = "core: unknown merge semantics MergeSemantics(9)"
	_, err = g.Generate(svc, mp, "bad", Options{AllowDisconnected: true, Merge: MergeSemantics(9)})
	if err == nil || err.Error() != want {
		t.Fatalf("unknown merge on a link-free diagram: %v, want %q", err, want)
	}
	dangling := mapping.New()
	for _, p := range []mapping.Pair{
		{AtomicService: "call", Requester: "ghost", Provider: "srv"},
		{AtomicService: "answer", Requester: "srv", Provider: "ghost"},
	} {
		if err := dangling.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	_, err = g.Generate(svc, dangling, "bad", Options{Merge: MergeSemantics(9)})
	if err == nil || !strings.Contains(err.Error(), "unknown merge semantics") {
		t.Fatalf("unknown merge with a dangling mapping: %v, want the merge error first", err)
	}
}
