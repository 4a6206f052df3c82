package pathdisc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"upsim/internal/topology"
)

// applyRandomMutation applies one random delta to both the graph and the
// patched kernel, keeping src/dst alive so enumerations stay interesting.
// It returns a description for failure messages.
func applyRandomMutation(t *testing.T, rng *rand.Rand, g *topology.Graph, c *Compiled, src, dst string, seq int) string {
	t.Helper()
	for attempts := 0; attempts < 20; attempts++ {
		switch rng.Intn(5) {
		case 0: // add node
			name := fmt.Sprintf("x%d", seq)
			if g.HasNode(name) {
				continue
			}
			if err := g.AddNode(name, "Patched"); err != nil {
				t.Fatalf("AddNode: %v", err)
			}
			if err := c.PatchAddNode(name); err != nil {
				t.Fatalf("PatchAddNode: %v", err)
			}
			return "add-node " + name
		case 1, 2: // add edge (biased: keeps graphs from draining)
			nodes := g.Nodes()
			a := nodes[rng.Intn(len(nodes))].Name
			b := nodes[rng.Intn(len(nodes))].Name // may equal a: self-loop
			id, err := g.AddEdge(a, b, "m")
			if err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
			if err := c.PatchAddEdge(a, b, id); err != nil {
				t.Fatalf("PatchAddEdge: %v", err)
			}
			return fmt.Sprintf("add-edge %s-%s#%d", a, b, id)
		case 3: // remove edge
			edges := g.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			if err := g.RemoveEdge(e.ID); err != nil {
				t.Fatalf("RemoveEdge: %v", err)
			}
			if err := c.PatchRemoveEdge(e.A, e.B, e.ID); err != nil {
				t.Fatalf("PatchRemoveEdge: %v", err)
			}
			return fmt.Sprintf("remove-edge %s-%s#%d", e.A, e.B, e.ID)
		case 4: // remove node (never an enumeration endpoint)
			nodes := g.Nodes()
			n := nodes[rng.Intn(len(nodes))].Name
			if n == src || n == dst {
				continue
			}
			if err := g.RemoveNode(n); err != nil {
				t.Fatalf("RemoveNode: %v", err)
			}
			if err := c.PatchRemoveNode(n); err != nil {
				t.Fatalf("PatchRemoveNode: %v", err)
			}
			return "remove-node " + n
		}
	}
	return "no-op"
}

// comparePatchedToRecompiled asserts the patched kernel and a fresh Compile
// of the mutated graph enumerate identical path sequences under every
// option combination. Equivalence is behavioural: dense IDs may
// differ after tombstoning, but emitted paths (names + topology edge IDs)
// must match exactly, including order.
func comparePatchedToRecompiled(t *testing.T, g *topology.Graph, patched *Compiled, src, dst, ctxt string) {
	t.Helper()
	fresh := Compile(g)
	for _, opts := range []Options{{}, {MaxDepth: 4}} {
		wantPaths, wantStats, wantErr := fresh.AllPaths(src, dst, opts)
		gotPaths, gotStats, gotErr := patched.AllPaths(src, dst, opts)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s: opts=%+v error mismatch: fresh=%v patched=%v", ctxt, opts, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(wantPaths, gotPaths) {
			t.Fatalf("%s: opts=%+v paths diverge:\nfresh:   %v\npatched: %v", ctxt, opts, wantPaths, gotPaths)
		}
		if wantStats.Paths != gotStats.Paths {
			t.Fatalf("%s: opts=%+v stats.Paths %d != %d", ctxt, opts, wantStats.Paths, gotStats.Paths)
		}
	}
	if fresh.NumNodes() != patched.NumNodes() {
		t.Fatalf("%s: NumNodes %d != %d", ctxt, patched.NumNodes(), fresh.NumNodes())
	}
	if fresh.NumEdges() != patched.NumEdges() {
		t.Fatalf("%s: NumEdges %d != %d", ctxt, patched.NumEdges(), fresh.NumEdges())
	}
	if fresh.MaxDegree() != patched.MaxDegree() {
		t.Fatalf("%s: MaxDegree %d != %d", ctxt, patched.MaxDegree(), fresh.MaxDegree())
	}
}

// TestPatchEquivalence is the property test for the incremental CSR patch:
// over random add/remove interleavings on the ladder and fat-tree
// generators, a patched kernel must stay behaviourally identical to a cold
// Compile of the mutated graph.
func TestPatchEquivalence(t *testing.T) {
	seeds := []struct {
		name     string
		build    func() (*topology.Graph, error)
		src, dst string
	}{
		{"ladder6", func() (*topology.Graph, error) { return topology.Ladder(6) }, "n0", "n11"},
		{"fattree4", func() (*topology.Graph, error) { return topology.FatTree(4) }, "h0", "h15"},
	}
	for _, sd := range seeds {
		t.Run(sd.name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				g, err := sd.build()
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				c := Compile(g)
				rng := rand.New(rand.NewSource(int64(1000*trial + 7)))
				for step := 0; step < 12; step++ {
					desc := applyRandomMutation(t, rng, g, c, sd.src, sd.dst, trial*100+step)
					// Checking after every step would be O(steps²) path
					// enumerations on the fat tree; check a prefix densely
					// and then the end state.
					if step < 4 || step == 11 {
						ctxt := fmt.Sprintf("%s trial=%d step=%d op=%s", sd.name, trial, step, desc)
						comparePatchedToRecompiled(t, g, c, sd.src, sd.dst, ctxt)
					}
				}
			}
		})
	}
}

// TestPatchRemovedEndpoint pins the error parity when an enumeration
// endpoint itself is removed: the patched kernel must fail exactly like a
// fresh compile of the mutated graph.
func TestPatchRemovedEndpoint(t *testing.T) {
	g, err := topology.Ladder(3)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	if err := g.RemoveNode("n0"); err != nil {
		t.Fatal(err)
	}
	if err := c.PatchRemoveNode("n0"); err != nil {
		t.Fatal(err)
	}
	_, _, wantErr := Compile(g).AllPaths("n0", "n5", Options{})
	_, _, gotErr := c.AllPaths("n0", "n5", Options{})
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("error parity: fresh=%v patched=%v", wantErr, gotErr)
	}
}

// TestPatchErrors covers the defensive paths.
func TestPatchErrors(t *testing.T) {
	g, err := topology.Ladder(2)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	if err := c.PatchAddNode("n0"); err == nil {
		t.Error("PatchAddNode(existing) succeeded")
	}
	if err := c.PatchAddEdge("n0", "nope", 99); err == nil {
		t.Error("PatchAddEdge(unknown) succeeded")
	}
	if err := c.PatchRemoveEdge("n0", "n1", 99); err == nil {
		t.Error("PatchRemoveEdge(unknown id) succeeded")
	}
	if err := c.PatchRemoveNode("nope"); err == nil {
		t.Error("PatchRemoveNode(unknown) succeeded")
	}
}
