package pathdisc

// This file implements incremental patching of the compiled CSR kernel —
// the pathdisc half of the live-topology what-if engine (DESIGN.md §13).
// Compile is O(V+E) with a string hash per adjacency entry; a single
// topology delta (one link flap, one node drained) touches only two
// adjacency ranges, so patching the arrays in place is far cheaper than
// recompiling and keeps every previously-issued dense node ID stable.
//
// Patch semantics mirror topology.Graph mutation semantics exactly:
//
//   - Added nodes get the next dense ID (insertion order, like Compile).
//   - Added edges append to the end of each endpoint's adjacency range
//     (insertion order again), a self-loop occupying two slots of the same
//     range.
//   - Removed edges delete their two adjacency entries, preserving the
//     order of the survivors.
//   - Removed nodes are tombstoned: the dense ID keeps its (now empty)
//     adjacency range and its names slot, but leaves the index map, so the
//     ID is never reused and lookups fail exactly like a fresh Compile of
//     the mutated graph.
//
// Because adjacency order drives enumeration order, a patched kernel emits
// byte-identical path sequences to a freshly compiled kernel of the mutated
// graph (pinned by TestPatchEquivalence). Dense IDs may differ after node
// removals — equivalence is behavioural, not structural.
//
// Patching is NOT safe concurrently with searches: callers (the what-if
// engine) must serialise patches against enumeration, e.g. behind the
// engine mutex.

import (
	"fmt"

	"upsim/internal/obs"
)

// mPatch counts individual CSR patch operations by kind; the what-if engine
// pairs it with upsim_whatif_recompile_total to show the patch-vs-recompile
// ratio on /metrics.
var mPatch = obs.NewCounter("upsim_pathdisc_patch_total",
	"Incremental CSR patch operations applied to compiled graphs.", "op")

// PatchAddNode appends an isolated node to the compiled kernel, assigning
// the next dense ID. Adding a name that is already present is an error.
func (c *Compiled) PatchAddNode(name string) error {
	if _, dup := c.index[name]; dup {
		return fmt.Errorf("pathdisc: node %q already compiled", name)
	}
	id := int32(len(c.names))
	c.names = append(c.names, name)
	c.index[name] = id
	c.adjStart = append(c.adjStart, c.adjStart[len(c.adjStart)-1])
	c.liveNodes++
	// Pooled scratch (visited bitset, dist table) is sized to the node
	// count; a grown universe needs freshly-sized scratch.
	c.resetPool()
	c.afterPatch()
	mPatch.With("add-node").Inc()
	return nil
}

// PatchAddEdge appends the edge (a, b, edgeID) to both endpoints' adjacency
// ranges. edgeID is the topology.Graph edge ID; the caller guarantees it is
// unique (the graph never reuses IDs). For a self-loop pass a == b.
func (c *Compiled) PatchAddEdge(a, b string, edgeID int) error {
	ai, ok := c.index[a]
	if !ok {
		return fmt.Errorf("pathdisc: unknown node %q", a)
	}
	bi, ok := c.index[b]
	if !ok {
		return fmt.Errorf("pathdisc: unknown node %q", b)
	}
	c.insertAdj(ai, bi, int32(edgeID))
	c.insertAdj(bi, ai, int32(edgeID))
	c.numEdges++
	if edgeID > c.maxEdgeID {
		c.maxEdgeID = edgeID
	}
	// Keep the ranked-discovery cost view coherent: resolve the new edge
	// through the retained resolver, exactly as a fresh Compile +
	// SetEdgeCosts of the mutated graph would (TestKShortestPatchCoherence).
	if c.costFn != nil {
		for len(c.costOf) <= edgeID {
			c.costOf = append(c.costOf, 1)
			c.costMbps = append(c.costMbps, 0)
		}
		c.resolveCost(edgeID)
	}
	c.afterPatch()
	mPatch.With("add-edge").Inc()
	return nil
}

// PatchRemoveEdge deletes the edge's two adjacency entries. a and b are the
// edge's endpoints (equal for a self-loop).
func (c *Compiled) PatchRemoveEdge(a, b string, edgeID int) error {
	ai, ok := c.index[a]
	if !ok {
		return fmt.Errorf("pathdisc: unknown node %q", a)
	}
	bi, ok := c.index[b]
	if !ok {
		return fmt.Errorf("pathdisc: unknown node %q", b)
	}
	if !c.removeAdj(ai, int32(edgeID)) {
		return fmt.Errorf("pathdisc: edge %d not incident to %q", edgeID, a)
	}
	if !c.removeAdj(bi, int32(edgeID)) {
		return fmt.Errorf("pathdisc: edge %d not incident to %q", edgeID, b)
	}
	c.numEdges--
	c.afterPatch()
	mPatch.With("remove-edge").Inc()
	return nil
}

// PatchRemoveNode tombstones the named node: any remaining incident edges
// are removed (mirror entries included), the dense ID's slot stays but the
// name leaves the index, so the ID is never reused and validate fails for
// it exactly as for a never-compiled name.
func (c *Compiled) PatchRemoveNode(name string) error {
	id, ok := c.index[name]
	if !ok {
		return fmt.Errorf("pathdisc: unknown node %q", name)
	}
	for c.adjStart[id] < c.adjStart[id+1] {
		j := c.adjStart[id]
		o, e := c.adjNode[j], c.adjEdge[j]
		c.removeAdj(id, e)
		if o != id { // self-loop mirrors live in the same range, already gone
			c.removeAdj(o, e)
		}
		c.numEdges--
	}
	delete(c.index, name)
	c.liveNodes--
	c.afterPatch()
	mPatch.With("remove-node").Inc()
	return nil
}

// insertAdj inserts the adjacency entry (o, e) at the end of node v's range
// and shifts every later range right by one.
func (c *Compiled) insertAdj(v, o, e int32) {
	at := int(c.adjStart[v+1])
	c.adjNode = append(c.adjNode, 0)
	c.adjEdge = append(c.adjEdge, 0)
	copy(c.adjNode[at+1:], c.adjNode[at:])
	copy(c.adjEdge[at+1:], c.adjEdge[at:])
	c.adjNode[at] = o
	c.adjEdge[at] = e
	for i := int(v) + 1; i < len(c.adjStart); i++ {
		c.adjStart[i]++
	}
}

// removeAdj deletes the first entry with edge ID e from node v's range,
// shifting every later range left by one. It reports whether an entry was
// found.
func (c *Compiled) removeAdj(v, e int32) bool {
	for j := c.adjStart[v]; j < c.adjStart[v+1]; j++ {
		if c.adjEdge[j] != e {
			continue
		}
		copy(c.adjNode[j:], c.adjNode[j+1:])
		copy(c.adjEdge[j:], c.adjEdge[j+1:])
		c.adjNode = c.adjNode[:len(c.adjNode)-1]
		c.adjEdge = c.adjEdge[:len(c.adjEdge)-1]
		for i := int(v) + 1; i < len(c.adjStart); i++ {
			c.adjStart[i]--
		}
		return true
	}
	return false
}

// afterPatch restores the derived state every patch invalidates: the
// collapsed parallel-edge view, the degree/branching statistics. Cost is
// O(V+E) with integer ops only — no string hashing, no per-node maps —
// which is what makes patching beat recompilation (BENCH_whatif.json).
func (c *Compiled) afterPatch() {
	c.maxDegree = 0
	for i := 0; i+1 < len(c.adjStart); i++ {
		if d := int(c.adjStart[i+1] - c.adjStart[i]); d > c.maxDegree {
			c.maxDegree = d
		}
	}
	c.branching = 0
	if c.liveNodes > 0 {
		c.branching = float64(len(c.adjNode)) / float64(c.liveNodes)
	}
	c.rebuildCollapsed()
	mCompiledNodes.With().Set(int64(c.liveNodes))
	mCompiledEdges.With().Set(int64(c.numEdges))
}

// rebuildCollapsed recomputes the collapsed (first-edge-per-neighbour) view
// from the full view, using a stamp array instead of per-node maps. When no
// parallel edges remain the collapsed view goes back to aliasing the full
// arrays, matching Compile's layout.
func (c *Compiled) rebuildCollapsed() {
	n := len(c.names)
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	colStart := make([]int32, n+1)
	colNode := make([]int32, 0, len(c.adjNode))
	colEdge := make([]int32, 0, len(c.adjEdge))
	for i := 0; i < n; i++ {
		for j := c.adjStart[i]; j < c.adjStart[i+1]; j++ {
			o := c.adjNode[j]
			if stamp[o] == int32(i) {
				continue
			}
			stamp[o] = int32(i)
			colNode = append(colNode, o)
			colEdge = append(colEdge, c.adjEdge[j])
		}
		colStart[i+1] = int32(len(colNode))
	}
	if len(colNode) == len(c.adjNode) {
		c.colStart, c.colNode, c.colEdge = c.adjStart, c.adjNode, c.adjEdge
	} else {
		c.colStart, c.colNode, c.colEdge = colStart, colNode, colEdge
	}
}
