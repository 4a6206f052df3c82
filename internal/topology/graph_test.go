package topology

import (
	"strings"
	"testing"

	"upsim/internal/uml"
)

func TestGraphBasics(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c"} {
		if err := g.AddNode(n, "Node"); err != nil {
			t.Fatal(err)
		}
	}
	id1, err := g.AddEdge("a", "b", "l1")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := g.AddEdge("a", "b", "l2") // parallel edge
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("b", "c", ""); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Errorf("counts = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if id1 == id2 {
		t.Error("parallel edges must have distinct IDs")
	}
	if g.Degree("a") != 2 || g.Degree("b") != 3 {
		t.Errorf("degrees = %d, %d", g.Degree("a"), g.Degree("b"))
	}
	e, ok := g.Edge(id1)
	if !ok || e.Label != "l1" || e.Other("a") != "b" || e.Other("b") != "a" || e.Other("x") != "" {
		t.Errorf("Edge(%d) = %+v", id1, e)
	}
	if _, ok := g.Edge(99); ok {
		t.Error("Edge(99) should be absent")
	}
	if _, ok := g.Edge(-1); ok {
		t.Error("Edge(-1) should be absent")
	}
	n, ok := g.Node("a")
	if !ok || n.Signature() != "a:Node" {
		t.Errorf("Node(a) = %+v", n)
	}
	if (Node{Name: "x"}).Signature() != "x" {
		t.Error("classless signature should omit colon")
	}
	if !g.HasNode("a") || g.HasNode("ghost") {
		t.Error("HasNode broken")
	}
	names := g.NodeNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("NodeNames = %v", names)
	}
}

func TestGraphErrors(t *testing.T) {
	g := New()
	if err := g.AddNode("", "X"); err == nil {
		t.Error("empty node name should fail")
	}
	if err := g.AddNode("a", "X"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("a", "X"); err == nil {
		t.Error("duplicate node should fail")
	}
	if _, err := g.AddEdge("a", "a", ""); err != nil {
		t.Errorf("self loop should be representable (lint reports it): %v", err)
	}
	if g.Degree("a") != 2 {
		t.Errorf("self loop should count twice in degree, got %d", g.Degree("a"))
	}
	if _, err := g.AddEdge("a", "ghost", ""); err == nil {
		t.Error("unknown endpoint should fail")
	}
	if _, err := g.AddEdge("ghost", "a", ""); err == nil {
		t.Error("unknown endpoint should fail")
	}
}

func TestConnected(t *testing.T) {
	g := New()
	if !g.Connected() {
		t.Error("empty graph is connected by convention")
	}
	_ = g.AddNode("a", "")
	_ = g.AddNode("b", "")
	if g.Connected() {
		t.Error("two isolated nodes are disconnected")
	}
	if _, err := g.AddEdge("a", "b", ""); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("a--b is connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		_ = g.AddNode(n, "N")
	}
	_, _ = g.AddEdge("a", "b", "")
	_, _ = g.AddEdge("b", "c", "")
	_, _ = g.AddEdge("c", "d", "")
	_, _ = g.AddEdge("a", "b", "redundant")
	sub := g.InducedSubgraph(map[string]bool{"a": true, "b": true, "c": true, "ghost": true})
	if sub.NumNodes() != 3 {
		t.Errorf("sub nodes = %d, want 3", sub.NumNodes())
	}
	// a-b (x2) and b-c survive; c-d does not.
	if sub.NumEdges() != 3 {
		t.Errorf("sub edges = %d, want 3", sub.NumEdges())
	}
	if sub.HasNode("d") {
		t.Error("d must be filtered out")
	}
}

func TestFromObjectDiagram(t *testing.T) {
	m := uml.NewModel("m")
	cls, _ := m.AddClass("Comp")
	sw, _ := m.AddClass("Switch")
	a, _ := m.AddAssociation("Comp-Switch", cls, sw)
	d := m.NewObjectDiagram("infra")
	t1, _ := d.AddInstance("t1", cls)
	c1, _ := d.AddInstance("c1", sw)
	if _, err := d.Connect(t1, c1, a); err != nil {
		t.Fatal(err)
	}
	g := FromObjectDiagram(d)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("graph = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	n, _ := g.Node("t1")
	if n.Class != "Comp" {
		t.Errorf("t1 class = %q", n.Class)
	}
	e, _ := g.Edge(0)
	if e.Label != "Comp-Switch" {
		t.Errorf("edge label = %q", e.Label)
	}
}

func TestToDOT(t *testing.T) {
	g := New()
	_ = g.AddNode("t1", "Comp")
	_ = g.AddNode("c1", "C6500")
	_, _ = g.AddEdge("t1", "c1", "uplink")
	dot := ToDOT(g, "UPSIM t1->p2")
	for _, want := range []string{
		"graph \"UPSIM_t1__p2\"", `"t1" [label="t1:Comp"`, `"t1" -- "c1" [label="uplink"]`,
		`label="UPSIM t1->p2"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q in:\n%s", want, dot)
		}
	}
	if dot2 := ToDOT(New(), ""); !strings.Contains(dot2, "graph \"G\"") {
		t.Errorf("empty-title DOT = %s", dot2)
	}
}

// Connected reports whether the graph is connected (an empty graph is
// connected by convention).
func (g *Graph) Connected() bool {
	if len(g.order) == 0 {
		return true
	}
	seen := map[string]bool{g.order[0]: true}
	stack := []string{g.order[0]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.adj[n] {
			o := g.edges[id].Other(n)
			if !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return len(seen) == len(g.nodes)
}

// InducedSubgraph returns the subgraph induced by keep: the named nodes and
// every edge whose both endpoints are kept. Unknown names in keep are
// ignored. This is the "filter on the complete topology" of Section VI-H.
func (g *Graph) InducedSubgraph(keep map[string]bool) *Graph {
	sub := New()
	for _, n := range g.order {
		if keep[n] {
			node := g.nodes[n]
			_ = sub.AddNode(node.Name, node.Class)
		}
	}
	for i, e := range g.edges {
		if !g.dead[i] && keep[e.A] && keep[e.B] {
			_, _ = sub.AddEdge(e.A, e.B, e.Label)
		}
	}
	return sub
}
