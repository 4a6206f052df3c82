package pathdisc

import (
	"strings"
	"testing"

	"upsim/internal/topology"
)

// diamond builds the classic redundancy fixture:
//
//	  a
//	 / \
//	b   c
//	 \ /
//	  d
func diamond(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.New()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n, "N"); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if _, err := g.AddEdge(e[0], e[1], ""); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAllPathsDiamond(t *testing.T) {
	g := diamond(t)
	paths, stats, err := Compile(g).AllPaths("a", "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	want := map[string]bool{"a—b—d": true, "a—c—d": true}
	for _, p := range paths {
		if !want[p.String()] {
			t.Errorf("unexpected path %s", p)
		}
	}
	if stats.Paths != 2 || stats.EdgeVisits < 4 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.MaxStack < 2 {
		t.Errorf("MaxStack = %d", stats.MaxStack)
	}
}

func TestAllPathsCycleSafety(t *testing.T) {
	// Ring of 5: exactly two simple paths between any two nodes.
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	paths, _, err := Compile(g).AllPaths("n0", "n2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("ring paths = %v", paths)
	}
}

func TestAllPathsParallelEdges(t *testing.T) {
	g := topology.New()
	_ = g.AddNode("a", "")
	_ = g.AddNode("b", "")
	_, _ = g.AddEdge("a", "b", "l1")
	_, _ = g.AddEdge("a", "b", "l2")
	paths, _, err := Compile(g).AllPaths("a", "b", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("parallel-edge paths = %d, want 2 (distinct edges)", len(paths))
	}
	if paths[0].Edges[0] == paths[1].Edges[0] {
		t.Error("paths must use distinct edges")
	}
	oracle, _, err := oracleAllPaths(g, "a", "b", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(paths, oracle) {
		t.Errorf("parallel-edge paths = %v, oracle %v", paths, oracle)
	}
}

func TestAllPathsDepthBound(t *testing.T) {
	g := diamond(t)
	// Extend with a longer detour a-e-f-d.
	for _, n := range []string{"e", "f"} {
		_ = g.AddNode(n, "")
	}
	_, _ = g.AddEdge("a", "e", "")
	_, _ = g.AddEdge("e", "f", "")
	_, _ = g.AddEdge("f", "d", "")
	all, _, _ := Compile(g).AllPaths("a", "d", Options{})
	if len(all) != 3 {
		t.Fatalf("unbounded paths = %d, want 3", len(all))
	}
	bounded, _, _ := Compile(g).AllPaths("a", "d", Options{MaxDepth: 2})
	if len(bounded) != 2 {
		t.Fatalf("depth-2 paths = %d, want 2", len(bounded))
	}
	for _, p := range bounded {
		if p.Len() > 2 {
			t.Errorf("path %s exceeds depth bound", p)
		}
	}
}

func TestAllPathsMaxPaths(t *testing.T) {
	g, _ := topology.Mesh(7)
	paths, stats, err := Compile(g).AllPaths("n0", "n6", Options{MaxPaths: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 10 || !stats.Truncated {
		t.Errorf("len = %d, truncated = %v", len(paths), stats.Truncated)
	}
	all, stats2, _ := Compile(g).AllPaths("n0", "n6", Options{})
	if stats2.Truncated {
		t.Error("unbounded run must not be truncated")
	}
	// Mesh of 7: sum over k of P(5,k) simple paths between two fixed nodes:
	// 1 + 5 + 20 + 60 + 120 + 120 = 326.
	if len(all) != 326 {
		t.Errorf("mesh(7) paths = %d, want 326", len(all))
	}
	// Truncated run must be a prefix of the full run.
	for i, p := range paths {
		if p.String() != all[i].String() {
			t.Fatalf("truncated[%d] = %s, full = %s", i, p, all[i])
		}
	}
}

func TestEndpointValidation(t *testing.T) {
	g := diamond(t)
	if _, _, err := Compile(g).AllPaths("ghost", "d", Options{}); err == nil {
		t.Error("unknown requester should fail")
	}
	if _, _, err := Compile(g).AllPaths("a", "ghost", Options{}); err == nil {
		t.Error("unknown provider should fail")
	}
	if _, _, err := Compile(g).AllPaths("a", "a", Options{}); err == nil {
		t.Error("identical endpoints should fail")
	}
	if _, _, err := Compile(g).KShortest("ghost", "a", Options{K: 1}); err == nil {
		t.Error("shortest path endpoint validation missing")
	}
}

func TestDisconnectedPair(t *testing.T) {
	g := topology.New()
	_ = g.AddNode("a", "")
	_ = g.AddNode("b", "")
	paths, stats, err := Compile(g).AllPaths("a", "b", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 || stats.Paths != 0 {
		t.Error("disconnected pair must yield zero paths without error")
	}
	if paths, _, err := Compile(g).KShortest("a", "b", Options{K: 1}); err != nil || len(paths) != 0 {
		t.Errorf("shortest path on disconnected pair = %v, %v; want no path and no error", paths, err)
	}
}

// TestShortestPath: the redundancy ablation's one minimum-hop path per
// pair is ranked discovery with K = 1.
func TestShortestPath(t *testing.T) {
	g := diamond(t)
	shortest := func(g *topology.Graph, src, dst string) Path {
		t.Helper()
		paths, _, err := Compile(g).KShortest(src, dst, Options{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 1 {
			t.Fatalf("K=1 returned %d paths", len(paths))
		}
		return paths[0]
	}
	p := shortest(g, "a", "d")
	if p.Len() != 2 || p.Nodes[0] != "a" || p.Nodes[2] != "d" {
		t.Errorf("shortest = %s", p)
	}
	// Chain: the unique path.
	c, _ := topology.Chain(6)
	p = shortest(c, "n0", "n5")
	if p.String() != "n0—n1—n2—n3—n4—n5" {
		t.Errorf("chain shortest = %s", p)
	}
	if len(p.Edges) != len(p.Nodes)-1 {
		t.Error("edge/node count mismatch")
	}
}

func TestVariantsAgree(t *testing.T) {
	graphs := map[string]*topology.Graph{}
	if g, err := topology.Mesh(6); err == nil {
		graphs["mesh6"] = g
	}
	if g, err := topology.Ring(8); err == nil {
		graphs["ring8"] = g
	}
	if g, err := topology.RandomConnected(16, 0.06, 3); err == nil {
		graphs["rand16"] = g
	}
	if g, err := topology.Campus(topology.CampusParams{
		EdgeSwitches: 4, ClientsPerEdge: 2, ServersPerSwitch: 2, RedundantCore: true,
	}); err == nil {
		graphs["campus"] = g
	}
	for name, g := range graphs {
		names := g.NodeNames()
		src, dst := names[0], names[len(names)-1]
		rec, _, err := oracleAllPaths(g, src, dst, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		csr, _, err := Compile(g).AllPaths(src, dst, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(rec, csr) {
			t.Errorf("%s: map-based and compiled path sets differ (%d vs %d)", name, len(rec), len(csr))
		}
		// The compiled kernel emits the same sequence, not just the same set.
		for i := range rec {
			if rec[i].equalKey() != csr[i].equalKey() {
				t.Errorf("%s: sequence differs at %d: %s vs %s", name, i, rec[i], csr[i])
				break
			}
		}
	}
}

func TestVariantsAgreeWithOptions(t *testing.T) {
	g, err := topology.RandomConnected(18, 0.15, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxDepth: 6}
	rec, _, _ := oracleAllPaths(g, "n0", "n17", opts)
	csr, _, _ := Compile(g).AllPaths("n0", "n17", opts)
	if !Equal(rec, csr) {
		t.Errorf("map-based and compiled kernels disagree under options: %d/%d", len(rec), len(csr))
	}
}

func TestPathInvariants(t *testing.T) {
	g, err := topology.RandomConnected(20, 0.06, 5)
	if err != nil {
		t.Fatal(err)
	}
	paths, _, err := Compile(g).AllPaths("n0", "n19", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Nodes[0] != "n0" || p.Nodes[len(p.Nodes)-1] != "n19" {
			t.Fatalf("path endpoints wrong: %s", p)
		}
		if len(p.Edges) != len(p.Nodes)-1 {
			t.Fatalf("edge count wrong: %s", p)
		}
		seen := map[string]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("node repeated in simple path: %s", p)
			}
			seen[n] = true
		}
		for i, id := range p.Edges {
			e, ok := g.Edge(id)
			if !ok {
				t.Fatalf("path references unknown edge %d", id)
			}
			if e.Other(p.Nodes[i]) != p.Nodes[i+1] {
				t.Fatalf("edge %d does not join %s and %s", id, p.Nodes[i], p.Nodes[i+1])
			}
		}
	}
}

// TestNodeID: the compiled node ID of every node is its position in the
// graph's insertion order, and an unknown name has none.
func TestNodeID(t *testing.T) {
	g := diamond(t)
	c := Compile(g)
	for i := 0; i < g.NumNodes(); i++ {
		if id, ok := c.NodeID(g.NodeNameAt(i)); !ok || id != i {
			t.Errorf("NodeID(%q) = %d, %v; want %d, true", g.NodeNameAt(i), id, ok, i)
		}
	}
	if _, ok := c.NodeID("ghost"); ok {
		t.Error("NodeID found an unknown node")
	}
}

// nodeSet returns the union of nodes over the given paths — the node set
// Step 8 keeps (Section VI-H: "only nodes which appear at least once in the
// discovered paths are preserved"), which core's merge marks by index.
func nodeSet(paths []Path) map[string]bool {
	set := make(map[string]bool)
	for _, p := range paths {
		for _, n := range p.Nodes {
			set[n] = true
		}
	}
	return set
}

// edgeSet returns the union of traversed edge IDs over the given paths.
func edgeSet(paths []Path) map[int]bool {
	set := make(map[int]bool)
	for _, p := range paths {
		for _, e := range p.Edges {
			set[e] = true
		}
	}
	return set
}

func TestNodeAndEdgeSets(t *testing.T) {
	g := diamond(t)
	paths, _, _ := Compile(g).AllPaths("a", "d", Options{})
	ns := nodeSet(paths)
	if len(ns) != 4 {
		t.Errorf("nodeSet = %v", ns)
	}
	es := edgeSet(paths)
	if len(es) != 4 {
		t.Errorf("edgeSet = %v", es)
	}
	if len(nodeSet(nil)) != 0 || len(edgeSet(nil)) != 0 {
		t.Error("empty path list must give empty sets")
	}
}

func TestSortAndEqual(t *testing.T) {
	a := Path{Nodes: []string{"a", "b"}, Edges: []int{0}}
	b := Path{Nodes: []string{"a", "c", "b"}, Edges: []int{1, 2}}
	c := Path{Nodes: []string{"a", "b"}, Edges: []int{3}} // parallel edge variant
	ps := []Path{b, c, a}
	Sort(ps)
	if ps[0].Len() != 1 || ps[2].Len() != 2 {
		t.Errorf("sort by length failed: %v", ps)
	}
	if !Equal([]Path{a, b}, []Path{b, a}) {
		t.Error("Equal must be order independent")
	}
	if Equal([]Path{a}, []Path{c}) {
		t.Error("paths over different edges are different")
	}
	if Equal([]Path{a}, []Path{a, b}) {
		t.Error("different lengths are unequal")
	}
}

func TestPathString(t *testing.T) {
	p := Path{Nodes: []string{"t1", "e1", "d1", "c1", "d4", "printS"}, Edges: []int{0, 1, 2, 3, 4}}
	if got := p.String(); got != "t1—e1—d1—c1—d4—printS" {
		t.Errorf("String = %q", got)
	}
	if !strings.Contains(p.equalKey(), "|2|") {
		t.Error("equalKey must embed edge IDs")
	}
}

// TestCountPathsAgreesWithAllPaths pins the count-only CSR search to the
// enumeration: same count, same Stats, under each bound.
func TestCountPathsAgreesWithAllPaths(t *testing.T) {
	graphs := map[string]*topology.Graph{}
	if g, err := topology.Mesh(7); err == nil {
		graphs["mesh7"] = g
	}
	if g, err := topology.RandomConnected(18, 0.08, 9); err == nil {
		graphs["rand18"] = g
	}
	if g, err := topology.Ring(9); err == nil {
		graphs["ring9"] = g
	}
	for name, g := range graphs {
		names := g.NodeNames()
		src, dst := names[0], names[len(names)-1]
		c := Compile(g)
		for _, opts := range []Options{
			{},
			{MaxDepth: 5},
			{MaxPaths: 7},
		} {
			paths, pathStats, err := c.AllPaths(src, dst, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			count, stats, err := c.CountPaths(src, dst, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if count != len(paths) {
				t.Errorf("%s %+v: CountPaths = %d, AllPaths = %d", name, opts, count, len(paths))
			}
			if stats != pathStats {
				t.Errorf("%s %+v: CountPaths stats %+v, AllPaths stats %+v", name, opts, stats, pathStats)
			}
			if stats.Paths != count {
				t.Errorf("%s: stats.Paths = %d, count = %d", name, stats.Paths, count)
			}
			if opts.MaxPaths > 0 && count == opts.MaxPaths && !stats.Truncated {
				t.Errorf("%s: truncation not reported", name)
			}
		}
	}
}

func TestCountPathsValidation(t *testing.T) {
	g := diamond(t)
	c := Compile(g)
	for _, ends := range [][2]string{{"ghost", "d"}, {"a", "ghost"}, {"a", "a"}} {
		_, _, want := oracleCountPaths(g, ends[0], ends[1], Options{})
		_, _, err := c.CountPaths(ends[0], ends[1], Options{})
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("CountPaths(%q, %q) error %v, oracle %v", ends[0], ends[1], err, want)
		}
	}
	n, _, err := c.CountPaths("a", "d", Options{})
	if err != nil || n != 2 {
		t.Errorf("diamond count = %d, %v", n, err)
	}
}

func TestNodeVisitsAndMetrics(t *testing.T) {
	g := diamond(t)
	c := Compile(g)
	paths, stats, err := c.AllPaths("a", "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	if stats.NodeVisits != stats.EdgeVisits+1 {
		t.Errorf("NodeVisits = %d, EdgeVisits = %d", stats.NodeVisits, stats.EdgeVisits)
	}
	// Counting reports NodeVisits too.
	if _, s, err := c.CountPaths("a", "d", Options{}); err != nil || s.NodeVisits == 0 {
		t.Errorf("count NodeVisits = %d, err = %v", s.NodeVisits, err)
	}
	// Each enumeration is observed once into the per-algorithm histograms
	// of the default registry: csr-dfs for AllPaths, count for CountPaths.
	for _, tc := range []struct {
		label string
		run   func(Options) (Stats, error)
	}{
		{"csr-dfs", func(o Options) (Stats, error) { _, s, err := c.AllPaths("a", "d", o); return s, err }},
		{"count", func(o Options) (Stats, error) { _, s, err := c.CountPaths("a", "d", o); return s, err }},
	} {
		before := mNodesVisited.With(tc.label).Count()
		if _, err := tc.run(Options{}); err != nil {
			t.Fatal(err)
		}
		if after := mNodesVisited.With(tc.label).Count(); after != before+1 {
			t.Errorf("%s: nodes_visited observations %d -> %d, want +1", tc.label, before, after)
		}
		truncated := mTruncated.With(tc.label).Value()
		if s, err := tc.run(Options{MaxPaths: 1}); err != nil || !s.Truncated {
			t.Fatalf("%s: truncation fixture failed: %+v, %v", tc.label, s, err)
		}
		if mTruncated.With(tc.label).Value() != truncated+1 {
			t.Errorf("%s: truncated counter not incremented", tc.label)
		}
	}
}

// TestHardMaxPaths pins the hard-limit contract across every enumeration
// entry point: the diamond holds two simple paths, so a hard limit of 1 must
// abort with a *LimitError while a limit of 2 passes untouched.
func TestHardMaxPaths(t *testing.T) {
	g := diamond(t)
	c := Compile(g)
	variants := map[string]func(Options) ([]Path, Stats, error){
		"recursive": func(o Options) ([]Path, Stats, error) { return oracleAllPaths(g, "a", "d", o) },
		"csr":       func(o Options) ([]Path, Stats, error) { return c.AllPaths("a", "d", o) },
	}
	for name, run := range variants {
		t.Run(name, func(t *testing.T) {
			paths, _, err := run(Options{HardMaxPaths: 1})
			if err == nil {
				t.Fatalf("hard limit 1 passed with %d paths", len(paths))
			}
			le, ok := AsLimitError(err)
			if !ok {
				t.Fatalf("error is not a LimitError: %v", err)
			}
			if le.Src != "a" || le.Dst != "d" || le.Limit != 1 {
				t.Fatalf("LimitError = %+v", le)
			}
			if paths, _, err = run(Options{HardMaxPaths: 2}); err != nil || len(paths) != 2 {
				t.Fatalf("hard limit 2: paths=%d err=%v", len(paths), err)
			}
			// MaxPaths below the hard limit truncates instead of erroring.
			paths, stats, err := run(Options{HardMaxPaths: 1, MaxPaths: 1})
			if err != nil || len(paths) != 1 || !stats.Truncated {
				t.Fatalf("MaxPaths precedence: paths=%d truncated=%v err=%v", len(paths), stats.Truncated, err)
			}
		})
	}
	// Counting honours the limit too.
	if _, _, err := c.CountPaths("a", "d", Options{HardMaxPaths: 1}); err == nil {
		t.Fatal("CountPaths ignored the hard limit")
	}
	if n, _, err := c.CountPaths("a", "d", Options{HardMaxPaths: 2}); err != nil || n != 2 {
		t.Fatalf("CountPaths with hard limit 2: %d, %v", n, err)
	}
}
