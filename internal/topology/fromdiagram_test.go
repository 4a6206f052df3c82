package topology

import (
	"fmt"
	"slices"
	"testing"

	"upsim/internal/uml"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzDiagram builds an object diagram from the input: 2 to 11 instances
// of one class and up to 23 links over three associations of that class,
// so pairs can have parallel links. Links the diagram rejects (self-links,
// duplicates) are skipped.
func fuzzDiagram(t *testing.T, in *fuzzBytes) *uml.ObjectDiagram {
	m := uml.NewModel("fuzz")
	c, err := m.AddClass("C")
	if err != nil {
		t.Fatal(err)
	}
	var assocs []*uml.Association
	for i := 0; i < 3; i++ {
		a, err := m.AddAssociation(fmt.Sprintf("A%d", i), c, c)
		if err != nil {
			t.Fatal(err)
		}
		assocs = append(assocs, a)
	}
	d := m.NewObjectDiagram("d")
	n := 2 + in.next()%10
	for i := 0; i < n; i++ {
		if _, err := d.AddInstance(fmt.Sprintf("i%d", i), c); err != nil {
			t.Fatal(err)
		}
	}
	for k := in.next() % 24; k > 0; k-- {
		a, b := d.InstanceAt(in.next()%n), d.InstanceAt(in.next()%n)
		_, _ = d.Connect(a, b, assocs[in.next()%len(assocs)])
	}
	return d
}

// FuzzFromObjectDiagramDeltas: FromObjectDiagram carves every adjacency
// list from one backing array, and a graph built that way must take any
// sequence of AddNode, AddEdge, RemoveEdge and RemoveNode — the what-if
// engine's deltas — exactly like the same diagram built edge by edge with
// New and AddEdge: the same errors, and after each operation the same
// incident edges at every node, the same Edges() and the same NodeNames().
func FuzzFromObjectDiagramDeltas(f *testing.F) {
	// Four instances on a path plus a chord, then: an edge on i0, whose
	// carved list ends where i1's begins; remove an edge, a node and add
	// them back.
	f.Add([]byte{2, 4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 0, 2, 1,
		1, 0, 1, 2, 0, 0, 3, 1, 0, 0, 1, 0, 1, 1, 3})
	// Parallel links and self-loop deltas.
	f.Add([]byte{1, 3, 0, 1, 0, 1, 0, 1, 1, 2, 2,
		1, 0, 0, 1, 1, 1, 2, 1, 0, 3, 0, 0, 1, 2, 2, 1, 0, 1})
	f.Add([]byte{9, 23, 1, 2, 0, 3, 4, 1, 5, 6, 2, 7, 8, 0, 9, 10, 1, 0, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		d := fuzzDiagram(t, &in)
		carved := FromObjectDiagram(d)
		twin := New()
		for _, inst := range d.Instances() {
			if err := twin.AddNode(inst.Name(), inst.Classifier().Name()); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range d.Links() {
			a, b := l.Ends()
			if _, err := twin.AddEdge(a.Name(), b.Name(), l.Association().Name()); err != nil {
				t.Fatal(err)
			}
		}
		sameGraph(t, "build", carved, twin)
		for step := 0; len(in) > 0; step++ {
			op, x, y := in.next(), in.next(), in.next()
			names := twin.NodeNames()
			node := func(i int) string {
				if len(names) == 0 {
					return "absent"
				}
				return names[i%len(names)]
			}
			var what string
			var errCarved, errTwin error
			switch op % 4 {
			case 0:
				name := fmt.Sprintf("i%d", x%16)
				what = "AddNode " + name
				errCarved, errTwin = carved.AddNode(name, "C"), twin.AddNode(name, "C")
			case 1:
				a, b := node(x), node(y)
				what = "AddEdge " + a + " " + b
				var idCarved, idTwin int
				idCarved, errCarved = carved.AddEdge(a, b, "L")
				idTwin, errTwin = twin.AddEdge(a, b, "L")
				if idCarved != idTwin {
					t.Fatalf("step %d, %s: edge IDs %d and %d", step, what, idCarved, idTwin)
				}
			case 2:
				what = fmt.Sprintf("RemoveEdge %d", x)
				errCarved, errTwin = carved.RemoveEdge(x), twin.RemoveEdge(x)
			case 3:
				name := node(x)
				what = "RemoveNode " + name
				errCarved, errTwin = carved.RemoveNode(name), twin.RemoveNode(name)
			}
			if fmt.Sprint(errCarved) != fmt.Sprint(errTwin) {
				t.Fatalf("step %d, %s: errors %v and %v", step, what, errCarved, errTwin)
			}
			sameGraph(t, fmt.Sprintf("step %d, %s", step, what), carved, twin)
		}
	})
}

// sameGraph fails t unless got and want have the same nodes, edges and
// incident edges at every node.
func sameGraph(t *testing.T, when string, got, want *Graph) {
	t.Helper()
	names := want.NodeNames()
	if g := got.NodeNames(); !slices.Equal(g, names) {
		t.Fatalf("%s: NodeNames %v, want %v", when, g, names)
	}
	if g, w := got.Edges(), want.Edges(); !slices.Equal(g, w) {
		t.Fatalf("%s: Edges %v, want %v", when, g, w)
	}
	for _, n := range names {
		if g, w := got.IncidentEdges(n), want.IncidentEdges(n); !slices.Equal(g, w) {
			t.Fatalf("%s: IncidentEdges(%s) = %v, want %v", when, n, g, w)
		}
	}
}
