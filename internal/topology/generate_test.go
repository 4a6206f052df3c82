package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTree(t *testing.T) {
	g, err := Tree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 2 + 4 + 8 = 15 nodes, 14 edges.
	if g.NumNodes() != 15 || g.NumEdges() != 14 {
		t.Errorf("tree(2,3) = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.Connected() {
		t.Error("tree must be connected")
	}
	if g, _ := Tree(3, 0); g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Error("depth-0 tree is a single node")
	}
	if _, err := Tree(0, 1); err == nil {
		t.Error("fanout 0 should fail")
	}
	if _, err := Tree(2, -1); err == nil {
		t.Error("negative depth should fail")
	}
}

func TestChainRingStar(t *testing.T) {
	c, err := Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 5 || c.NumEdges() != 4 || !c.Connected() {
		t.Error("chain(5) malformed")
	}
	if _, err := Chain(0); err == nil {
		t.Error("chain(0) should fail")
	}
}

func TestMesh(t *testing.T) {
	g, err := Mesh(6)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 || g.NumEdges() != 15 {
		t.Errorf("mesh(6) = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	for _, n := range g.Nodes() {
		if g.Degree(n.Name) != 5 {
			t.Errorf("mesh degree(%s) = %d", n.Name, g.Degree(n.Name))
		}
	}
	if _, err := Mesh(0); err == nil {
		t.Error("mesh(0) should fail")
	}
}

func TestLadder(t *testing.T) {
	g, err := Ladder(5)
	if err != nil {
		t.Fatal(err)
	}
	// 2n nodes, 2(n-1) rail edges + n rungs.
	if g.NumNodes() != 10 || g.NumEdges() != 13 {
		t.Errorf("ladder(5) = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.Connected() {
		t.Error("ladder must be connected")
	}
	// Corners have degree 2, interior rail nodes degree 3.
	for _, c := range []string{"n0", "n4", "n5", "n9"} {
		if g.Degree(c) != 2 {
			t.Errorf("ladder corner degree(%s) = %d", c, g.Degree(c))
		}
	}
	for _, in := range []string{"n1", "n2", "n3", "n6", "n7", "n8"} {
		if g.Degree(in) != 3 {
			t.Errorf("ladder interior degree(%s) = %d", in, g.Degree(in))
		}
	}
	if _, err := Ladder(1); err == nil {
		t.Error("ladder(1) should fail")
	}
}

func TestRandomConnected(t *testing.T) {
	g, err := RandomConnected(50, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 50 || g.NumEdges() != 49 {
		t.Errorf("density-0 random graph should be a tree: %d nodes, %d edges",
			g.NumNodes(), g.NumEdges())
	}
	if !g.Connected() {
		t.Error("random graph must be connected")
	}
	dense, err := RandomConnected(20, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if dense.NumEdges() != 20*19/2 {
		t.Errorf("density-1 random graph should be complete: %d edges", dense.NumEdges())
	}
	// Determinism: same seed, same graph.
	g2, _ := RandomConnected(50, 0.1, 7)
	g3, _ := RandomConnected(50, 0.1, 7)
	if g2.NumEdges() != g3.NumEdges() {
		t.Error("same seed must give same graph")
	}
	e2, e3 := g2.Edges(), g3.Edges()
	for i := range e2 {
		if e2[i] != e3[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e2[i], e3[i])
		}
	}
	if _, err := RandomConnected(0, 0.1, 1); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := RandomConnected(5, -0.1, 1); err == nil {
		t.Error("negative density should fail")
	}
	if _, err := RandomConnected(5, 1.1, 1); err == nil {
		t.Error("density > 1 should fail")
	}
}

// Property: random connected graphs are connected for any size and density.
func TestRandomConnectedProperty(t *testing.T) {
	f := func(nRaw uint8, dRaw uint8, seed int64) bool {
		n := int(nRaw)%40 + 1
		d := float64(dRaw%101) / 100
		g, err := RandomConnected(n, d, seed)
		return err == nil && g.Connected() && g.NumNodes() == n && g.NumEdges() >= n-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCampus(t *testing.T) {
	g, err := Campus(CampusParams{
		EdgeSwitches:     4,
		ClientsPerEdge:   3,
		ServersPerSwitch: 2,
		RedundantCore:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 cores + 2 dist + 2 server switches + 4 edges + 12 clients + 4 servers = 26.
	if g.NumNodes() != 26 {
		t.Errorf("campus nodes = %d, want 26", g.NumNodes())
	}
	// core 2 + dist 4 + srvswitch 4 + edge uplinks 4 + clients 12 + servers 4 = 30.
	if g.NumEdges() != 30 {
		t.Errorf("campus edges = %d, want 30", g.NumEdges())
	}
	if !g.Connected() {
		t.Error("campus must be connected")
	}
	if len(g.IncidentEdges("c1")) == 0 {
		t.Error("core switch must have incident edges")
	}
	// Redundant core: two parallel c1--c2 links.
	core := 0
	for _, e := range g.Edges() {
		if (e.A == "c1" && e.B == "c2") || (e.A == "c2" && e.B == "c1") {
			core++
		}
	}
	if core != 2 {
		t.Errorf("core links = %d, want 2", core)
	}
	if _, err := Campus(CampusParams{EdgeSwitches: 0}); err == nil {
		t.Error("campus without edge switches should fail")
	}
	if _, err := Campus(CampusParams{EdgeSwitches: 1, ClientsPerEdge: -1}); err == nil {
		t.Error("negative clients should fail")
	}
}

func TestFatTree(t *testing.T) {
	g, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 cores, 4 pods x (2 agg + 2 edge) = 16 switches, 4 pods x 4
	// hosts = 16 hosts -> 36 nodes.
	if g.NumNodes() != 36 {
		t.Errorf("fat-tree(4) nodes = %d, want 36", g.NumNodes())
	}
	// Edges: agg-core 4*2*2=16, edge-agg 4*2*2=16, host-edge 16 -> 48.
	if g.NumEdges() != 48 {
		t.Errorf("fat-tree(4) edges = %d, want 48", g.NumEdges())
	}
	if !g.Connected() {
		t.Error("fat-tree must be connected")
	}
	// Every host has degree 1, every edge switch k.
	if g.Degree("h0-0-0") != 1 {
		t.Errorf("host degree = %d", g.Degree("h0-0-0"))
	}
	if g.Degree("edge0-0") != 4 {
		t.Errorf("edge switch degree = %d", g.Degree("edge0-0"))
	}
	if g.Degree("core0") != 4 {
		t.Errorf("core degree = %d", g.Degree("core0"))
	}
	for _, bad := range []int{0, 1, 3, -2} {
		if _, err := FatTree(bad); err == nil {
			t.Errorf("FatTree(%d) should fail", bad)
		}
	}
}

// Chain generates a path graph of n nodes n0—n1—…—n(n-1).
func Chain(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: Chain size %d < 1", n)
	}
	g := New()
	for i := 0; i < n; i++ {
		_ = g.AddNode(fmt.Sprintf("n%d", i), "Node")
	}
	for i := 0; i+1 < n; i++ {
		if _, err := g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), ""); err != nil {
			return nil, err
		}
	}
	return g, nil
}
