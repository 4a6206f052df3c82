package topology

import (
	"fmt"
	"math/rand"
)

// This file provides synthetic topology generators for the scalability
// experiments motivated in Section V-D: "The complexity of such algorithms
// grows significantly with the size of the ICT infrastructure … reaching
// O(n!) for a fully interconnected graph of n nodes. However, real networks
// usually contain few loops, while most clients are located in tree-like
// structures with a low number of edges."
//
// All generators are deterministic for a given parameter set (random graphs
// take an explicit seed) so that benchmarks are reproducible.

// Tree generates a complete tree with the given fanout and depth. The root
// is "n0"; nodes are breadth-first numbered. depth 0 yields a single node.
func Tree(fanout, depth int) (*Graph, error) {
	if fanout < 1 {
		return nil, fmt.Errorf("topology: Tree fanout %d < 1", fanout)
	}
	if depth < 0 {
		return nil, fmt.Errorf("topology: Tree depth %d < 0", depth)
	}
	g := New()
	_ = g.AddNode("n0", "Node")
	frontier := []string{"n0"}
	next := 1
	for d := 0; d < depth; d++ {
		var newFrontier []string
		for _, parent := range frontier {
			for f := 0; f < fanout; f++ {
				name := fmt.Sprintf("n%d", next)
				next++
				_ = g.AddNode(name, "Node")
				if _, err := g.AddEdge(parent, name, ""); err != nil {
					return nil, err
				}
				newFrontier = append(newFrontier, name)
			}
		}
		frontier = newFrontier
	}
	return g, nil
}

// Ladder generates the ladder graph of 2n nodes: two parallel chains
// n0—n1—…—n(n-1) and n<n>—…—n(2n-1) with a rung between opposite nodes
// (n<i>—n<n+i>). Its path count between the chain ends grows only linearly
// with n, making it the low-branching counterpart to Mesh in the
// scalability experiments — exactly the "real networks usually contain few
// loops" regime of Section V-D.
func Ladder(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: Ladder rungs %d < 2", n)
	}
	g := New()
	for i := 0; i < 2*n; i++ {
		_ = g.AddNode(fmt.Sprintf("n%d", i), "Node")
	}
	for i := 0; i+1 < n; i++ {
		if _, err := g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), ""); err != nil {
			return nil, err
		}
		if _, err := g.AddEdge(fmt.Sprintf("n%d", n+i), fmt.Sprintf("n%d", n+i+1), ""); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", n+i), ""); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Mesh generates the complete graph K_n — the paper's O(n!) worst case.
func Mesh(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: Mesh size %d < 1", n)
	}
	g := New()
	for i := 0; i < n; i++ {
		_ = g.AddNode(fmt.Sprintf("n%d", i), "Node")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, err := g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j), ""); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// RandomConnected generates a connected graph of n nodes: a uniform random
// spanning tree (random attachment) plus extra edges added independently
// with probability loopDensity per non-tree node pair. loopDensity 0 yields
// a tree; loopDensity 1 yields a complete graph. Deterministic per seed.
func RandomConnected(n int, loopDensity float64, seed int64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: RandomConnected size %d < 1", n)
	}
	if loopDensity < 0 || loopDensity > 1 {
		return nil, fmt.Errorf("topology: loop density %v outside [0,1]", loopDensity)
	}
	rng := rand.New(rand.NewSource(seed))
	g := New()
	_ = g.AddNode("n0", "Node")
	for i := 1; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		_ = g.AddNode(name, "Node")
		parent := fmt.Sprintf("n%d", rng.Intn(i))
		if _, err := g.AddEdge(parent, name, ""); err != nil {
			return nil, err
		}
	}
	if loopDensity > 0 {
		present := make(map[[2]int]bool, g.NumEdges())
		for _, e := range g.Edges() {
			var i, j int
			fmt.Sscanf(e.A, "n%d", &i)
			fmt.Sscanf(e.B, "n%d", &j)
			if j < i {
				i, j = j, i
			}
			present[[2]int{i, j}] = true
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if present[[2]int{i, j}] {
					continue
				}
				if rng.Float64() < loopDensity {
					if _, err := g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j), ""); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return g, nil
}

// FatTree generates a k-ary fat-tree (k even, ≥ 2), the standard
// data-center topology: (k/2)² core switches, k pods of k/2 aggregation and
// k/2 edge switches, and (k/2)² hosts per pod. Node names: "core<i>",
// "agg<p>-<i>", "edge<p>-<i>", "h<p>-<e>-<i>". Fat-trees are the "complex
// infrastructures such as cloud computing" the paper's conclusion defers to
// future work; the path-discovery experiments run on them directly.
func FatTree(k int) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: FatTree arity %d must be even and >= 2", k)
	}
	g := New()
	half := k / 2
	// Core layer: half*half switches, grouped in `half` groups.
	for i := 0; i < half*half; i++ {
		_ = g.AddNode(fmt.Sprintf("core%d", i), "Core")
	}
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			agg := fmt.Sprintf("agg%d-%d", p, i)
			_ = g.AddNode(agg, "Aggregation")
			// Aggregation switch i of each pod connects to core group i.
			for j := 0; j < half; j++ {
				if _, err := g.AddEdge(agg, fmt.Sprintf("core%d", i*half+j), ""); err != nil {
					return nil, err
				}
			}
		}
		for e := 0; e < half; e++ {
			edge := fmt.Sprintf("edge%d-%d", p, e)
			_ = g.AddNode(edge, "Edge")
			for i := 0; i < half; i++ {
				if _, err := g.AddEdge(edge, fmt.Sprintf("agg%d-%d", p, i), ""); err != nil {
					return nil, err
				}
			}
			for h := 0; h < half; h++ {
				host := fmt.Sprintf("h%d-%d-%d", p, e, h)
				_ = g.AddNode(host, "Host")
				if _, err := g.AddEdge(host, edge, ""); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// CampusParams parameterises Campus.
type CampusParams struct {
	// EdgeSwitches is the number of access-layer switches (≥ 1).
	EdgeSwitches int
	// ClientsPerEdge is the number of client nodes per access switch.
	ClientsPerEdge int
	// ServersPerSwitch is the number of servers per server switch (2 server
	// switches are always generated).
	ServersPerSwitch int
	// RedundantCore adds a second link between the two core switches.
	RedundantCore bool
}

// Campus generates a topology shaped like the paper's USI network (Figure
// 5): two core switches ("c1", "c2") with a (optionally redundant) core
// interconnect, two distribution switches ("d1", "d2") each dual-homed to
// both cores, edge switches ("e<i>") split between the distribution
// switches, clients ("t<i>") under the edge switches, and two server
// switches ("s1", "s2") dual-homed to both cores with servers ("srv<i>")
// beneath. The result is tree-like at the periphery with redundancy
// concentrated in the core — the structure Section V-D argues is the common
// real-world case.
func Campus(p CampusParams) (*Graph, error) {
	if p.EdgeSwitches < 1 {
		return nil, fmt.Errorf("topology: Campus needs at least 1 edge switch")
	}
	if p.ClientsPerEdge < 0 || p.ServersPerSwitch < 0 {
		return nil, fmt.Errorf("topology: Campus negative counts")
	}
	g := New()
	for _, c := range []string{"c1", "c2"} {
		_ = g.AddNode(c, "Core")
	}
	if _, err := g.AddEdge("c1", "c2", ""); err != nil {
		return nil, err
	}
	if p.RedundantCore {
		if _, err := g.AddEdge("c1", "c2", ""); err != nil {
			return nil, err
		}
	}
	for _, d := range []string{"d1", "d2"} {
		_ = g.AddNode(d, "Distribution")
		for _, c := range []string{"c1", "c2"} {
			if _, err := g.AddEdge(d, c, ""); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range []string{"s1", "s2"} {
		_ = g.AddNode(s, "ServerSwitch")
		for _, c := range []string{"c1", "c2"} {
			if _, err := g.AddEdge(s, c, ""); err != nil {
				return nil, err
			}
		}
	}
	client := 0
	for i := 0; i < p.EdgeSwitches; i++ {
		e := fmt.Sprintf("e%d", i+1)
		_ = g.AddNode(e, "Edge")
		dist := "d1"
		if i%2 == 1 {
			dist = "d2"
		}
		if _, err := g.AddEdge(e, dist, ""); err != nil {
			return nil, err
		}
		for j := 0; j < p.ClientsPerEdge; j++ {
			client++
			t := fmt.Sprintf("t%d", client)
			_ = g.AddNode(t, "Client")
			if _, err := g.AddEdge(t, e, ""); err != nil {
				return nil, err
			}
		}
	}
	srv := 0
	for _, s := range []string{"s1", "s2"} {
		for j := 0; j < p.ServersPerSwitch; j++ {
			srv++
			name := fmt.Sprintf("srv%d", srv)
			_ = g.AddNode(name, "Server")
			if _, err := g.AddEdge(name, s, ""); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
