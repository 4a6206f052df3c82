package explain

import (
	"fmt"
	"strings"

	"upsim/internal/core"
)

// TreeNode is one node of a discovery tree: the prefix-merged view of every
// path an atomic service discovered, rooted at the requester. Two paths
// sharing a hop prefix share the corresponding tree nodes, so the tree shows
// where the user's traffic fans out across redundant infrastructure.
type TreeNode struct {
	// Name is the component instance name.
	Name string `json:"name"`
	// Class is the component's class name.
	Class string `json:"class,omitempty"`
	// PathCount counts the discovered paths passing through this node.
	PathCount int `json:"pathCount"`
	// Terminal counts the paths ending here (at the provider).
	Terminal int `json:"terminal,omitempty"`
	// Children are the next hops in first-discovered order.
	Children []*TreeNode `json:"children,omitempty"`
}

// BuildTree merges one atomic service's discovered paths into a discovery
// tree rooted at the requester. Children keep the deterministic enumeration
// order both path-discovery kernels share.
//
// The paths are first merged into index links (mergeTree); the tree is then
// carved from one exact node slab and one exact child-pointer slab
// (carveTree), so its cost grows with the number of paths, not with the
// number of hops.
func BuildTree(res *core.Result, sp core.ServicePaths) (*TreeNode, error) {
	// Every hop after a path's first node may open a tree node: the merge
	// never needs more links than that bound, so it never grows.
	bound := 1
	for _, p := range sp.Paths {
		if len(p.Nodes) > 1 {
			bound += len(p.Nodes) - 1
		}
	}
	var buf [64]treeLink
	links := buf[:0]
	if bound > len(buf) {
		links = make([]treeLink, 0, bound)
	}
	links, err := mergeTree(sp, links)
	if err != nil {
		return nil, err
	}
	return carveTree(res, sp, links), nil
}

// treeLink is one node of the merge scratch. A non-root node records the
// hop that opened it (its name is sp.Paths[path].Nodes[hop]) and its first
// and last child and next sibling as indexes into the scratch. Index 0 is
// the root, which is never a child or a sibling, so 0 also means "none".
type treeLink struct {
	path, hop         int32
	first, last, next int32
	paths, terminal   int32
}

// mergeTree merges sp's paths into links (which must be empty and have room
// for every hop), root first, each node's children in first-discovered
// order.
func mergeTree(sp core.ServicePaths, links []treeLink) ([]treeLink, error) {
	links = append(links, treeLink{})
	for pi, p := range sp.Paths {
		if len(p.Nodes) == 0 || p.Nodes[0] != sp.Requester {
			return nil, fmt.Errorf("explain: path of %q does not start at requester %q",
				sp.AtomicService, sp.Requester)
		}
		links[0].paths++
		cur := int32(0)
		for h := 1; h < len(p.Nodes); h++ {
			hop := p.Nodes[h]
			c := links[cur].first
			for c != 0 && sp.Paths[links[c].path].Nodes[links[c].hop] != hop {
				c = links[c].next
			}
			if c == 0 {
				c = int32(len(links))
				links = append(links, treeLink{path: int32(pi), hop: int32(h)})
				if last := links[cur].last; last != 0 {
					links[last].next = c
				} else {
					links[cur].first = c
				}
				links[cur].last = c
			}
			links[c].paths++
			cur = c
		}
		links[cur].terminal++
	}
	return links, nil
}

// carveTree builds the tree mergeTree linked: node i of the links is
// nodes[i], and each node's Children are carved in link order from one
// pointer slab with a full slice expression, so no node's list can grow
// into the next one's. Leaves keep Children nil.
func carveTree(res *core.Result, sp core.ServicePaths, links []treeLink) *TreeNode {
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
		if off > start {
			n.Children = kids[start:off:off]
		}
	}
	return &nodes[0]
}

// Depth returns the number of node levels of the tree (1 for a lone root).
func (t *TreeNode) Depth() int {
	max := 0
	for _, c := range t.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Nodes counts the tree nodes, root included.
func (t *TreeNode) Nodes() int {
	n := 1
	for _, c := range t.Children {
		n += c.Nodes()
	}
	return n
}

// Render returns the tree as an indented text diagram, in the style of the
// -trace span tree:
//
//	t1:Comp  paths=2
//	└─ e1:HP2524  paths=2
//	   ├─ C6509:C6509  paths=1
//	   ...
func (t *TreeNode) Render() string {
	var b strings.Builder
	var walk func(n *TreeNode, prefix, childPrefix string)
	walk = func(n *TreeNode, prefix, childPrefix string) {
		label := n.Name
		if n.Class != "" {
			label += ":" + n.Class
		}
		fmt.Fprintf(&b, "%s%s  paths=%d", prefix, label, n.PathCount)
		if n.Terminal > 0 {
			fmt.Fprintf(&b, " terminal=%d", n.Terminal)
		}
		b.WriteByte('\n')
		for i, c := range n.Children {
			connector, extend := "├─ ", "│  "
			if i == len(n.Children)-1 {
				connector, extend = "└─ ", "   "
			}
			walk(c, childPrefix+connector, childPrefix+extend)
		}
	}
	walk(t, "", "")
	return b.String()
}
