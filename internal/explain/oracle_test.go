package explain

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"upsim/internal/core"
	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

// oracleBuildTree is the pointer-by-pointer discovery-tree merge: one heap
// node per distinct hop, each Children list grown by append. BuildTree must
// produce the identical tree (and the identical error) from its index
// links and slabs.
func oracleBuildTree(res *core.Result, sp core.ServicePaths) (*TreeNode, error) {
	root := &TreeNode{Name: sp.Requester}
	if n, ok := res.Graph.Node(sp.Requester); ok {
		root.Class = n.Class
	}
	for _, p := range sp.Paths {
		if len(p.Nodes) == 0 || p.Nodes[0] != sp.Requester {
			return nil, fmt.Errorf("explain: path of %q does not start at requester %q",
				sp.AtomicService, sp.Requester)
		}
		root.PathCount++
		cur := root
		for _, hop := range p.Nodes[1:] {
			child := oracleChild(cur, hop)
			if child == nil {
				child = &TreeNode{Name: hop}
				if n, ok := res.Graph.Node(hop); ok {
					child.Class = n.Class
				}
				cur.Children = append(cur.Children, child)
			}
			child.PathCount++
			cur = child
		}
		cur.Terminal++
	}
	return root, nil
}

// oracleChild returns t's direct child with the given name, or nil.
func oracleChild(t *TreeNode, name string) *TreeNode {
	for _, c := range t.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// treeDiff describes how got differs from the oracle's want, or returns ""
// when they agree: the same structure (nil Children on leaves included),
// the same rendering, depth and node count.
func treeDiff(want, got *TreeNode) string {
	if !reflect.DeepEqual(want, got) {
		return fmt.Sprintf("tree differs:\nwant:\n%sgot:\n%s", want.Render(), got.Render())
	}
	if w, g := want.Render(), got.Render(); w != g {
		return fmt.Sprintf("render differs:\nwant:\n%sgot:\n%s", w, g)
	}
	if w, g := want.Depth(), got.Depth(); w != g {
		return fmt.Sprintf("depth %d, want %d", g, w)
	}
	if w, g := want.Nodes(), got.Nodes(); w != g {
		return fmt.Sprintf("%d nodes, want %d", g, w)
	}
	return ""
}

// treeGraph is the graph the tree tests resolve classes against: nodes
// n0…n7 with classes C0…C3, so some hops have a class and n8, n9 have none.
func treeGraph(t testing.TB) *core.Result {
	g := topology.New()
	for i := 0; i < 8; i++ {
		if err := g.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("C%d", i%4)); err != nil {
			t.Fatal(err)
		}
	}
	return &core.Result{Graph: g}
}

// fuzzPaths decodes data into the paths of one atomic service requested by
// n0: each byte below 0xf0 adds a hop n(b%10) to the current path, and a
// byte from 0xf0 up ends it. A path that does not start at n0 is given the
// requester prefix unless the ending byte is 0xff, which keeps it as it is
// and so tests the error. Repeated paths, shared prefixes and single-hop
// paths all occur.
func fuzzPaths(data []byte) core.ServicePaths {
	sp := core.ServicePaths{AtomicService: "a", Requester: "n0", Provider: "n9"}
	var nodes []string
	end := func(keep bool) {
		if !keep && (len(nodes) == 0 || nodes[0] != sp.Requester) {
			nodes = append([]string{sp.Requester}, nodes...)
		}
		sp.Paths = append(sp.Paths, pathdisc.Path{Nodes: nodes})
		nodes = nil
	}
	for _, b := range data {
		if b >= 0xf0 {
			end(b == 0xff)
			continue
		}
		nodes = append(nodes, fmt.Sprintf("n%d", b%10))
	}
	if len(nodes) > 0 {
		end(false)
	}
	return sp
}

// FuzzBuildTreeAgreesWithOracle holds BuildTree to oracleBuildTree on
// random path sets: the same tree, rendering, depth and node count, or the
// same error text.
func FuzzBuildTreeAgreesWithOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0xf0, 1, 2, 4, 0xf0, 1, 5})          // shared prefix
	f.Add([]byte{1, 2, 0xf0, 1, 2, 0xf0, 1, 2})                // repeated path
	f.Add([]byte{9, 0xf0, 9, 0xf0, 3})                         // single-hop direct paths
	f.Add([]byte{0xf0, 0xf0})                                  // requester-only paths
	f.Add([]byte{1, 2, 0xf0, 4, 5, 0xff, 1, 3})                // a path not at the requester
	f.Add([]byte{0xff})                                        // an empty path
	f.Add([]byte{1, 1, 2, 1, 0xf0, 1, 1, 2, 2, 0xf0, 8, 9, 0}) // hop names repeat along a path
	res := treeGraph(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		sp := fuzzPaths(data)
		want, wantErr := oracleBuildTree(res, sp)
		got, err := BuildTree(res, sp)
		if (wantErr == nil) != (err == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("BuildTree error = %v, oracle %v", err, wantErr)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("BuildTree returned a tree with its error %v", err)
			}
			return
		}
		if d := treeDiff(want, got); d != "" {
			t.Fatal(d)
		}
	})
}

// TestBuildTreeLarge crosses the merge scratch's stack buffer: a tree with
// more hops than it holds must agree with the oracle too.
func TestBuildTreeLarge(t *testing.T) {
	res := treeGraph(t)
	var data []byte
	for i := 0; i < 40; i++ {
		data = append(data, byte(i%7+1), byte(i%5+1), byte(i%3+1), 0xf0)
	}
	sp := fuzzPaths(data)
	want, err := oracleBuildTree(res, sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildTree(res, sp)
	if err != nil {
		t.Fatal(err)
	}
	if d := treeDiff(want, got); d != "" {
		t.Fatal(d)
	}
}

// carveOffByOne is carveTree with its child carve off by one: each node's
// Children window ends one pointer early.
func carveOffByOne(res *core.Result, sp core.ServicePaths, links []treeLink) *TreeNode {
	nodes := make([]TreeNode, len(links))
	var kids []*TreeNode
	if len(links) > 1 {
		kids = make([]*TreeNode, len(links)-1)
	}
	off := 0
	for i := range links {
		l, n := &links[i], &nodes[i]
		n.Name = sp.Requester
		if i > 0 {
			n.Name = sp.Paths[l.path].Nodes[l.hop]
		}
		if gn, ok := res.Graph.Node(n.Name); ok {
			n.Class = gn.Class
		}
		n.PathCount, n.Terminal = int(l.paths), int(l.terminal)
		start := off
		for c := l.first; c != 0; c = links[c].next {
			kids[off] = &nodes[c]
			off++
		}
		if off > start+1 {
			n.Children = kids[start : off-1 : off-1]
		}
	}
	return &nodes[0]
}

// TestTreeOracleCatchesOffByOneCarve shows the oracle comparison has teeth:
// a carve that drops one child pointer per node disagrees with it.
func TestTreeOracleCatchesOffByOneCarve(t *testing.T) {
	res := treeGraph(t)
	sp := fuzzPaths([]byte{1, 2, 3, 0xf0, 1, 2, 4, 0xf0, 1, 5})
	want, err := oracleBuildTree(res, sp)
	if err != nil {
		t.Fatal(err)
	}
	links, err := mergeTree(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := treeDiff(want, carveTree(res, sp, links)); d != "" {
		t.Fatalf("the correct carve disagrees: %s", d)
	}
	d := treeDiff(want, carveOffByOne(res, sp, links))
	if d == "" {
		t.Fatal("an off-by-one child carve agrees with the oracle")
	}
	if !strings.Contains(d, "tree differs") {
		t.Errorf("off-by-one carve reported as %q, want a structural difference", d)
	}
}
