// Package topology provides the graph view of ICT infrastructures that the
// path-discovery algorithm (Section V-D) operates on: "The algorithm sees
// the infrastructure as a graph and iteratively extracts all possible paths
// between two vertices requester and provider."
//
// A Graph is an undirected multigraph with string-named nodes; parallel
// edges model redundant physical connections (the paper's core switches have
// "redundant connections"). The package also provides synthetic topology
// generators (trees, campus networks, meshes, random graphs with tunable
// loop density) used by the scalability experiments, plus Graphviz DOT
// export for visualising infrastructures and UPSIMs.
package topology

import (
	"fmt"
	"sort"

	"upsim/internal/uml"
)

// Node is one vertex of the graph, carrying the instance name and its class
// name (the ":Class" part of the object-diagram signature).
type Node struct {
	Name  string
	Class string
}

// Signature renders the node as "name:Class".
func (n Node) Signature() string {
	if n.Class == "" {
		return n.Name
	}
	return n.Name + ":" + n.Class
}

// Edge is one undirected edge, identified by a dense integer ID so that
// parallel edges between the same pair of nodes stay distinguishable.
type Edge struct {
	ID   int
	A, B string
	// Label carries the association name when the graph is derived from an
	// object diagram.
	Label string
}

// Other returns the opposite endpoint relative to name, or "" if name is not
// an endpoint.
func (e Edge) Other(name string) string {
	switch name {
	case e.A:
		return e.B
	case e.B:
		return e.A
	}
	return ""
}

// Graph is an undirected multigraph. The zero value is not usable; call New.
//
// Graphs are mutable: nodes and edges can be added at any time, and — since
// the live-topology what-if engine (DESIGN.md §13) — removed again via
// RemoveNode/RemoveEdge (see delta.go). Removal tombstones the edge slot so
// edge IDs stay stable and are never reused.
type Graph struct {
	nodes map[string]Node
	order []string
	edges []Edge
	adj   map[string][]int // node -> incident edge IDs, insertion order

	dead      []bool // parallel to edges; true = removed (tombstoned slot)
	liveEdges int
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[string]Node),
		adj:   make(map[string][]int),
	}
}

// AddNode inserts a node. Node names are unique.
func (g *Graph) AddNode(name, class string) error {
	if name == "" {
		return fmt.Errorf("topology: empty node name")
	}
	if _, dup := g.nodes[name]; dup {
		return fmt.Errorf("topology: duplicate node %q", name)
	}
	g.nodes[name] = Node{Name: name, Class: class}
	g.order = append(g.order, name)
	return nil
}

// AddEdge inserts an undirected edge between two existing nodes and returns
// its ID. Parallel edges and self-loops are allowed — a self-loop is almost
// certainly a modelling mistake (a connector joins two distinct devices),
// but the graph layer represents it faithfully so the lint engine can report
// it instead of the importer silently failing. Simple paths never traverse a
// self-loop, so path discovery is unaffected.
func (g *Graph) AddEdge(a, b, label string) (int, error) {
	if _, ok := g.nodes[a]; !ok {
		return 0, fmt.Errorf("topology: unknown node %q", a)
	}
	if _, ok := g.nodes[b]; !ok {
		return 0, fmt.Errorf("topology: unknown node %q", b)
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, A: a, B: b, Label: label})
	g.dead = append(g.dead, false)
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	g.liveEdges++
	return id, nil
}

// HasNode reports whether the named node exists.
func (g *Graph) HasNode(name string) bool {
	_, ok := g.nodes[name]
	return ok
}

// Node returns the named node.
func (g *Graph) Node(name string) (Node, bool) {
	n, ok := g.nodes[name]
	return n, ok
}

// Nodes returns the nodes in insertion order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, len(g.order))
	for _, n := range g.order {
		out = append(out, g.nodes[n])
	}
	return out
}

// NodeNameAt returns the name of the i-th node in insertion order
// (Nodes()[i].Name, without copying the list), for 0 <= i < NumNodes().
func (g *Graph) NodeNameAt(i int) string { return g.order[i] }

// NodeNames returns the sorted node names.
func (g *Graph) NodeNames() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	sort.Strings(out)
	return out
}

// Edge returns the edge with the given ID. Removed edges report !ok.
func (g *Graph) Edge(id int) (Edge, bool) {
	if id < 0 || id >= len(g.edges) || g.dead[id] {
		return Edge{}, false
	}
	return g.edges[id], true
}

// Edges returns the live edges in insertion order. Edge IDs are stable
// across removals, so after a RemoveEdge the IDs need not be contiguous.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.liveEdges)
	for i, e := range g.edges {
		if !g.dead[i] {
			out = append(out, e)
		}
	}
	return out
}

// IncidentEdges returns the IDs of edges incident to the node, in insertion
// order. The slice is shared; callers must not modify it.
func (g *Graph) IncidentEdges(name string) []int { return g.adj[name] }

// Degree returns the number of incident edges (parallel edges counted).
func (g *Graph) Degree(name string) int { return len(g.adj[name]) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the live edge count (parallel edges counted).
func (g *Graph) NumEdges() int { return g.liveEdges }

// FromObjectDiagram builds the graph view of a UML object diagram: one node
// per instance specification (classifier name attached), one edge per link
// (association name attached). This is the hand-off point between Step 5
// (imported models) and Step 7 (path discovery).
func FromObjectDiagram(d *uml.ObjectDiagram) *Graph {
	nInst, nLinks := d.NumInstances(), d.NumLinks()
	// Sized up front: every cold model build (Step 5) passes through here.
	g := &Graph{
		nodes: make(map[string]Node, nInst),
		order: make([]string, 0, nInst),
		edges: make([]Edge, 0, nLinks),
		dead:  make([]bool, 0, nLinks),
		adj:   make(map[string][]int, nInst),
	}
	for i := 0; i < nInst; i++ {
		inst := d.InstanceAt(i)
		_ = g.AddNode(inst.Name(), inst.Classifier().Name())
	}
	// Every adjacency list is carved from one backing array. The first
	// pass only counts degrees: each node's entry is a prefix of back whose
	// length is the node's degree so far.
	back := make([]int, 2*nLinks)
	for i := 0; i < nLinks; i++ {
		a, b := d.LinkAt(i).Ends()
		g.adj[a.Name()] = back[:len(g.adj[a.Name()])+1]
		g.adj[b.Name()] = back[:len(g.adj[b.Name()])+1]
	}
	off := 0
	for _, name := range g.order {
		if deg := len(g.adj[name]); deg > 0 {
			// The full slice expression caps the list at its own slots,
			// so an AddEdge after this build reallocates it instead of
			// overwriting the next node's list.
			g.adj[name] = back[off : off : off+deg]
			off += deg
		}
	}
	for i := 0; i < nLinks; i++ {
		l := d.LinkAt(i)
		a, b := l.Ends()
		_, _ = g.AddEdge(a.Name(), b.Name(), l.Association().Name())
	}
	return g
}
