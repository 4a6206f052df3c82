package topology

import (
	"reflect"
	"testing"
)

func mustNode(t *testing.T, g *Graph, name, class string) {
	t.Helper()
	if err := g.AddNode(name, class); err != nil {
		t.Fatalf("AddNode(%s): %v", name, err)
	}
}

func mustEdge(t *testing.T, g *Graph, a, b, label string) int {
	t.Helper()
	id, err := g.AddEdge(a, b, label)
	if err != nil {
		t.Fatalf("AddEdge(%s,%s): %v", a, b, err)
	}
	return id
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	mustNode(t, g, "a", "Switch")
	mustNode(t, g, "b", "Switch")
	mustNode(t, g, "c", "Switch")
	e0 := mustEdge(t, g, "a", "b", "l0")
	e1 := mustEdge(t, g, "b", "c", "l1")
	e2 := mustEdge(t, g, "a", "b", "l2") // parallel to e0

	if err := g.RemoveEdge(e0); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if _, ok := g.Edge(e0); ok {
		t.Fatalf("Edge(%d) still present after removal", e0)
	}
	// IDs of surviving edges are stable.
	if e, ok := g.Edge(e2); !ok || e.Label != "l2" {
		t.Fatalf("Edge(%d) = %+v, %v; want l2", e2, e, ok)
	}
	var ids []int
	for _, e := range g.Edges() {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(ids, []int{e1, e2}) {
		t.Fatalf("Edges IDs = %v, want [%d %d]", ids, e1, e2)
	}
	if got := g.Degree("a"); got != 1 {
		t.Fatalf("Degree(a) = %d, want 1", got)
	}
	// Double removal is an error.
	if err := g.RemoveEdge(e0); err == nil {
		t.Fatal("double RemoveEdge succeeded")
	}
	if err := g.RemoveEdge(99); err == nil {
		t.Fatal("RemoveEdge(99) succeeded")
	}
	// New edges never reuse a tombstoned ID.
	e3 := mustEdge(t, g, "a", "c", "l3")
	if e3 == e0 {
		t.Fatalf("edge ID %d reused", e0)
	}
}

func TestRemoveEdgeSelfLoop(t *testing.T) {
	g := New()
	mustNode(t, g, "a", "Switch")
	mustNode(t, g, "b", "Switch")
	loop := mustEdge(t, g, "a", "a", "loop")
	mustEdge(t, g, "a", "b", "l")
	if g.Degree("a") != 3 { // self-loop counts twice
		t.Fatalf("Degree(a) = %d, want 3", g.Degree("a"))
	}
	if err := g.RemoveEdge(loop); err != nil {
		t.Fatalf("RemoveEdge(loop): %v", err)
	}
	if g.Degree("a") != 1 {
		t.Fatalf("Degree(a) after loop removal = %d, want 1", g.Degree("a"))
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	mustNode(t, g, "a", "Switch")
	mustNode(t, g, "b", "Switch")
	mustNode(t, g, "c", "Switch")
	mustEdge(t, g, "a", "b", "")
	eBC := mustEdge(t, g, "b", "c", "")
	mustEdge(t, g, "b", "b", "loop")

	if err := g.RemoveNode("b"); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if g.HasNode("b") {
		t.Fatal("node b still present")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("nodes=%d edges=%d, want 2, 0", g.NumNodes(), g.NumEdges())
	}
	if _, ok := g.Edge(eBC); ok {
		t.Fatal("incident edge survived node removal")
	}
	if g.Degree("a") != 0 || g.Degree("c") != 0 {
		t.Fatalf("degrees a=%d c=%d, want 0,0", g.Degree("a"), g.Degree("c"))
	}
	if err := g.RemoveNode("b"); err == nil {
		t.Fatal("double RemoveNode succeeded")
	}
	// A node can be re-added after removal.
	mustNode(t, g, "b", "Router")
	if n, _ := g.Node("b"); n.Class != "Router" {
		t.Fatalf("re-added node class = %q, want Router", n.Class)
	}
}

func TestEdgesBetween(t *testing.T) {
	g := New()
	mustNode(t, g, "a", "")
	mustNode(t, g, "b", "")
	mustNode(t, g, "c", "")
	e0 := mustEdge(t, g, "a", "b", "")
	e1 := mustEdge(t, g, "a", "b", "")
	mustEdge(t, g, "b", "c", "")
	loop := mustEdge(t, g, "a", "a", "loop")

	if got := g.EdgesBetween("a", "b"); !reflect.DeepEqual(got, []int{e0, e1}) {
		t.Fatalf("EdgesBetween(a,b) = %v, want [%d %d]", got, e0, e1)
	}
	if got := g.EdgesBetween("b", "a"); !reflect.DeepEqual(got, []int{e0, e1}) {
		t.Fatalf("EdgesBetween(b,a) = %v, want [%d %d]", got, e0, e1)
	}
	if got := g.EdgesBetween("a", "a"); !reflect.DeepEqual(got, []int{loop}) {
		t.Fatalf("EdgesBetween(a,a) = %v, want [%d]", got, loop)
	}
	if got := g.EdgesBetween("a", "c"); got != nil {
		t.Fatalf("EdgesBetween(a,c) = %v, want nil", got)
	}
	if err := g.RemoveEdge(e0); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgesBetween("a", "b"); !reflect.DeepEqual(got, []int{e1}) {
		t.Fatalf("EdgesBetween after removal = %v, want [%d]", got, e1)
	}
}

func TestInducedSubgraphSkipsRemoved(t *testing.T) {
	g := New()
	mustNode(t, g, "a", "")
	mustNode(t, g, "b", "")
	e0 := mustEdge(t, g, "a", "b", "")
	mustEdge(t, g, "a", "b", "")
	if err := g.RemoveEdge(e0); err != nil {
		t.Fatal(err)
	}
	sub := g.InducedSubgraph(map[string]bool{"a": true, "b": true})
	if sub.NumEdges() != 1 {
		t.Fatalf("induced subgraph edges = %d, want 1", sub.NumEdges())
	}
}
