package topology

import "fmt"

// This file holds the delta (mutation) operations behind the live-topology
// what-if engine (DESIGN.md §13). The paper evaluates properties on a fixed
// infrastructure; a production deployment churns, so node/link removal must
// be as first-class as insertion. Removal uses tombstones: the edge slice
// never shrinks, removed slots are marked dead, and edge IDs are never
// reused — this keeps every previously handed-out ID (paths, UPSIMs, the
// link components of compiled dependability kernels) unambiguous, at the
// cost of a little slack in the slice for the graph's lifetime.

// RemoveEdge removes the edge with the given ID. The slot is tombstoned:
// the ID is never reused, Edge(id) reports !ok, and Edges()/NumEdges() skip
// it. Removing an unknown or already-removed edge is an error.
func (g *Graph) RemoveEdge(id int) error {
	if id < 0 || id >= len(g.edges) || g.dead[id] {
		return fmt.Errorf("topology: unknown edge %d", id)
	}
	e := g.edges[id]
	g.adj[e.A] = removeFirstID(g.adj[e.A], id)
	// A self-loop occupies two slots of the same adjacency list.
	g.adj[e.B] = removeFirstID(g.adj[e.B], id)
	g.dead[id] = true
	g.liveEdges--
	return nil
}

// RemoveNode removes the named node and every edge incident to it (their
// IDs are tombstoned like RemoveEdge). Removing an unknown node is an
// error.
func (g *Graph) RemoveNode(name string) error {
	if _, ok := g.nodes[name]; !ok {
		return fmt.Errorf("topology: unknown node %q", name)
	}
	// Copy: RemoveEdge rewrites the adjacency list we are iterating.
	ids := append([]int(nil), g.adj[name]...)
	for _, id := range ids {
		if !g.dead[id] { // a self-loop appears twice; the second visit sees it dead
			_ = g.RemoveEdge(id)
		}
	}
	delete(g.nodes, name)
	delete(g.adj, name)
	for i, n := range g.order {
		if n == name {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	return nil
}

// EdgesBetween returns the IDs of the live edges joining a and b (parallel
// edges each listed once), in insertion order. For a self-loop pass a == b.
func (g *Graph) EdgesBetween(a, b string) []int {
	var out []int
	for _, id := range g.adj[a] {
		e := g.edges[id]
		if g.dead[id] {
			continue
		}
		if e.Other(a) == b || (a == b && e.A == e.B && e.A == a) {
			if len(out) > 0 && out[len(out)-1] == id {
				continue // self-loop: second slot of the same edge
			}
			out = append(out, id)
		}
	}
	return out
}

// removeFirstID deletes the first occurrence of id, preserving the order of
// the remaining elements (adjacency order is observable through path
// enumeration, so it must match what a fresh insertion-order build yields).
func removeFirstID(ids []int, id int) []int {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
