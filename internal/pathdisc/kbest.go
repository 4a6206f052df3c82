package pathdisc

// This file implements the budgeted ranked discovery mode of the compiled
// kernel: Yen's k-shortest-paths over the CSR adjacency, with edge costs
// resolved once from model stereotypes (SetEdgeCosts) and a hop-count
// fallback. All-simple-paths enumeration is exponential, so a pathological
// pair can only be answered with a hard-limit error (LimitError, kind
// "paths"); KShortest instead bounds the work to K single-source shortest
// path computations — k·V·E in the worst case — and returns the K cheapest
// paths under a deterministic total order. See DESIGN.md §15.
//
// Determinism. Paths are ordered by (cost, node-name sequence, edge-ID
// sequence). Cost ties are resolved exactly — no epsilon — which requires a
// fixed float summation order: every path cost in this file is the
// right-to-left fold c(e1) + (c(e2) + (… + 0)), the same arithmetic the
// reverse Dijkstra performs when it relaxes dist[v] = c(e) + dist[w]
// toward the destination. PathCost exposes the fold so callers (and the
// brute-force property test) reproduce kernel costs bit-identically.
//
// Allocation. The spur searches run on the pooled scratch: the binary heap,
// the float distance table, the blocked-edge bitset and the path records
// are all reused across enumerations, so a warm KShortest performs only the
// three allocations of its exact-size result, built by materialise like
// AllPaths' (pinned by TestKShortestAllocs).

import (
	"fmt"
	"math"
)

// CostMetric selects the edge-cost model of ranked discovery.
type CostMetric uint8

const (
	// CostHops charges every edge 1: K shortest paths by hop count. The
	// zero value, and the fallback when no cost view is installed.
	CostHops CostMetric = iota
	// CostThroughput charges an edge 1/throughput (Mbps, from the
	// Communication stereotype's attribute, resolved by SetEdgeCosts) and 1
	// when the edge carries no positive throughput — the same per-edge cost
	// the provenance path records report (internal/explain).
	CostThroughput
)

// String renders the metric in its wire form ("hops", "throughput").
func (m CostMetric) String() string {
	switch m {
	case CostHops:
		return "hops"
	case CostThroughput:
		return "throughput"
	}
	return fmt.Sprintf("CostMetric(%d)", uint8(m))
}

// ParseCostMetric parses the wire form accepted by the HTTP and CLI
// surfaces; the empty string selects CostHops.
func ParseCostMetric(s string) (CostMetric, error) {
	switch s {
	case "", "hops":
		return CostHops, nil
	case "throughput":
		return CostThroughput, nil
	}
	return CostHops, fmt.Errorf("pathdisc: unknown cost metric %q (want \"hops\" or \"throughput\")", s)
}

// EdgeCostFunc resolves the throughput (in Mbps) of one topology edge ID.
// ok reports whether the edge carries a positive throughput attribute;
// edges that resolve to false cost 1 (the hop fallback).
type EdgeCostFunc func(edgeID int) (mbps float64, ok bool)

// SetEdgeCosts installs the stereotype cost view: fn is resolved once per
// edge ID here, never during search. Passing nil removes the view,
// reverting CostThroughput to the hop fallback. Not safe concurrently with
// searches: callers install the view before the kernel is shared
// (Generators do it at construction time).
func (c *Compiled) SetEdgeCosts(fn EdgeCostFunc) {
	if fn == nil {
		c.costOf = nil
		return
	}
	c.costOf = make([]float64, c.maxEdgeID+1)
	for id := range c.costOf {
		if mbps, ok := fn(id); ok && mbps > 0 {
			c.costOf[id] = 1 / mbps
		} else {
			c.costOf[id] = 1
		}
	}
}

// edgeCost returns the cost of traversing edge e under the metric. Always
// positive: Dijkstra's monotonicity and the simplicity of extracted walks
// both rest on that.
//
//upsim:hotpath one lookup per relaxation
func (c *Compiled) edgeCost(metric CostMetric, e int32) float64 {
	if metric == CostHops || c.costOf == nil {
		return 1
	}
	return c.costOf[e]
}

// PathCost computes a path's cost under the metric using the kernel's
// right-to-left summation convention, so a caller ranking paths itself
// (the property test's brute force, the per-path response records) gets
// floats bit-identical to KShortest's internal ordering.
func (c *Compiled) PathCost(metric CostMetric, p Path) float64 {
	var cost float64
	for i := len(p.Edges) - 1; i >= 0; i-- {
		cost = c.edgeCost(metric, int32(p.Edges[i])) + cost
	}
	return cost
}

// kheapEntry is one binary-heap slot of the pooled Dijkstra frontier.
type kheapEntry struct {
	dist float64
	node int32
}

// kpath is one found path in Compiled-internal form: an AllPaths emission,
// or a KShortest candidate or accepted path. It is a span of the pooled
// scratch's karena — n node IDs from off, then the n-1 edge IDs — so a
// record holds no pointers: appending one needs no GC write barrier, and
// the records stay valid when karena regrows. materialise turns records
// into Paths.
type kpath struct {
	cost float64
	off  int
	n    int
}

// pathNodes returns the node IDs of record p.
func (s *scratch) pathNodes(p kpath) []int32 { return s.karena[p.off : p.off+p.n] }

// pathEdges returns the edge IDs of record p.
func (s *scratch) pathEdges(p kpath) []int32 { return s.karena[p.off+p.n : p.off+2*p.n-1] }

// ksearch is the per-enumeration state of one KShortest run.
type ksearch struct {
	c      *Compiled
	s      *scratch
	metric CostMetric
	dst    int32
	stats  Stats
}

// Blocked-set helpers: root-path nodes are blocked through the scratch
// visited bitset (the same one the DFS kernels use for path tracking), spur
// edges through the eblock bitset sized by the largest edge ID.

//upsim:hotpath bitset ops, one per relaxation
func (k *ksearch) blockEdge(e int32) { k.s.eblock[e>>6] |= 1 << (uint(e) & 63) }

//upsim:hotpath
func (k *ksearch) edgeBlocked(e int32) bool { return k.s.eblock[e>>6]&(1<<(uint(e)&63)) != 0 }

//upsim:hotpath
func (k *ksearch) nodeBlocked(v int32) bool {
	return k.s.visited[v>>6]&(1<<(uint(v)&63)) != 0
}

// push inserts a frontier entry, sifting up.
//
//upsim:hotpath
func (k *ksearch) push(e kheapEntry) {
	h := append(k.s.kheap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.s.kheap = h
}

// pop removes the minimum frontier entry, sifting down.
//
//upsim:hotpath
func (k *ksearch) pop() kheapEntry {
	h := k.s.kheap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].dist < h[m].dist {
			m = l
		}
		if r < n && h[r].dist < h[m].dist {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.s.kheap = h
	return top
}

// dijkstra fills s.fdist with the cheapest cost from every node to dst
// under the current node and edge blocks (+Inf when unreachable) — the
// reverse single-source pass each Yen spur runs. Lazy deletion: stale heap
// entries are skipped on pop instead of being decreased in place.
//
//upsim:hotpath the inner loop of ranked discovery
func (k *ksearch) dijkstra() {
	s := k.s
	for i := range s.fdist {
		s.fdist[i] = math.Inf(1)
	}
	s.kheap = s.kheap[:0]
	s.fdist[k.dst] = 0
	k.push(kheapEntry{dist: 0, node: k.dst})
	for len(s.kheap) > 0 {
		e := k.pop()
		if e.dist > s.fdist[e.node] {
			continue // stale entry superseded by a cheaper relaxation
		}
		k.stats.NodeVisits++
		for j := k.c.adjStart[e.node]; j < k.c.adjStart[e.node+1]; j++ {
			next := k.c.adjNode[j]
			eid := k.c.adjEdge[j]
			if k.nodeBlocked(next) || k.edgeBlocked(eid) {
				continue
			}
			k.stats.EdgeVisits++
			nd := k.c.edgeCost(k.metric, eid) + e.dist
			if nd < s.fdist[next] {
				s.fdist[next] = nd
				k.push(kheapEntry{dist: nd, node: next})
			}
		}
	}
}

// extract appends to s.nodes/s.edges the lexicographically-least cheapest
// path from `from` to dst implied by the current fdist table: at every step
// it takes the tight edge (fdist[next] + cost == fdist[cur], exact float
// equality) whose endpoint has the smallest node name, breaking residual
// ties (parallel edges) on the smallest edge ID. Every positive-cost tight
// step strictly decreases fdist, so the walk is simple and terminates at
// dst without explicit tracking. Returns false only if no tight edge
// exists, which cannot happen for a finite fdist[from] under unchanged
// blocks (defensive).
//
//upsim:hotpath
func (k *ksearch) extract(from int32) bool {
	s := k.s
	cur := from
	for cur != k.dst {
		best := int32(-1)
		var bestNode, bestEdge int32
		for j := k.c.adjStart[cur]; j < k.c.adjStart[cur+1]; j++ {
			next := k.c.adjNode[j]
			eid := k.c.adjEdge[j]
			if k.nodeBlocked(next) || k.edgeBlocked(eid) {
				continue
			}
			if s.fdist[next]+k.c.edgeCost(k.metric, eid) != s.fdist[cur] {
				continue
			}
			if best < 0 || k.c.names[next] < k.c.names[bestNode] ||
				(next == bestNode && eid < bestEdge) {
				best, bestNode, bestEdge = j, next, eid
			}
		}
		if best < 0 {
			return false
		}
		s.nodes = append(s.nodes, bestNode)
		s.edges = append(s.edges, bestEdge)
		cur = bestNode
	}
	return true
}

// carve copies the current s.nodes/s.edges buffers (a path: one edge fewer
// than nodes) into karena and returns them as a kpath with the given cost.
//
//upsim:hotpath once per emitted path or spur candidate
func (s *scratch) carve(cost float64) kpath {
	p := kpath{cost: cost, off: len(s.karena), n: len(s.nodes)}
	s.karena = append(s.karena, s.nodes...)
	s.karena = append(s.karena, s.edges...)
	return p
}

// sameSeq reports whether a kpath equals the current buffer contents.
func (k *ksearch) sameSeq(p kpath) bool {
	s := k.s
	if p.n != len(s.nodes) {
		return false
	}
	for i, v := range s.pathNodes(p) {
		if s.nodes[i] != v {
			return false
		}
	}
	for i, e := range s.pathEdges(p) {
		if s.edges[i] != e {
			return false
		}
	}
	return true
}

// lessKPath is the deterministic total order of ranked discovery: cost
// (exact float compare — all costs share one summation order), then the
// node-name sequence, then the edge-ID sequence.
func (k *ksearch) lessKPath(a, b kpath) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	an, bn := k.s.pathNodes(a), k.s.pathNodes(b)
	for i := 0; i < len(an) && i < len(bn); i++ {
		if x, y := k.c.names[an[i]], k.c.names[bn[i]]; x != y {
			return x < y
		}
	}
	if len(an) != len(bn) {
		return len(an) < len(bn)
	}
	ae, be := k.s.pathEdges(a), k.s.pathEdges(b)
	for i := range ae {
		if ae[i] != be[i] {
			return ae[i] < be[i]
		}
	}
	return false
}

// prefixMatches reports whether accepted path p shares the root prefix of
// prevNodes/prevEdges through spur index i: same first i+1 nodes and first
// i edges, with an edge at position i to block.
func (s *scratch) prefixMatches(p kpath, prevNodes, prevEdges []int32, i int) bool {
	pe := s.pathEdges(p)
	if len(pe) <= i {
		return false
	}
	pn := s.pathNodes(p)
	for j := 0; j <= i; j++ {
		if pn[j] != prevNodes[j] {
			return false
		}
	}
	for j := 0; j < i; j++ {
		if pe[j] != prevEdges[j] {
			return false
		}
	}
	return true
}

// KShortest returns the opts.K cheapest simple paths from src to dst under
// opts.CostMetric, ordered by (cost, node-name sequence, edge-ID sequence)
// — Yen's algorithm over the compiled adjacency, with every spur search a
// pooled binary-heap Dijkstra. Fewer than K paths are returned when the
// pair admits fewer; a disconnected pair returns an empty slice and no
// error (ranked discovery answers "the best you can get", enumeration
// semantics like AllowDisconnected stay with the full enumeration).
//
// Unlike the enumeration entry points, KShortest ignores MaxDepth,
// MaxPaths and HardMaxPaths: its bound is the K·V·E work
// envelope, enforced up front through Options.MaxWork — exceeding it
// returns a *LimitError with Kind "kbest" before any search runs.
// Stats.Truncated reports that exactly K paths were returned (more may
// exist); Paths, NodeVisits and EdgeVisits count the ranked search effort.
func (c *Compiled) KShortest(src, dst string, opts Options) ([]Path, Stats, error) {
	s0, d0, err := c.validate(src, dst)
	if err != nil {
		return nil, Stats{}, err
	}
	if opts.K <= 0 {
		return nil, Stats{}, fmt.Errorf("pathdisc: k must be positive (got %d)", opts.K)
	}
	if opts.MaxWork > 0 {
		// The work envelope: K spur rounds, each at most one Dijkstra per
		// path node, each Dijkstra O(E log V) — estimated as K·V·E, the
		// coarse bound documented in docs/API.md. Estimated before any
		// search so an over-budget request costs nothing.
		if est := opts.K * len(c.names) * c.numEdges; est > opts.MaxWork {
			return nil, Stats{}, &LimitError{
				Src: src, Dst: dst, Kind: LimitKBest, Need: est, Limit: opts.MaxWork,
			}
		}
	}
	s := c.getScratch()
	defer c.putScratch(s)
	// The blocked-edge bitset is sized on first use: only ranked discovery
	// needs it.
	if words := (c.maxEdgeID + 64) / 64; len(s.eblock) < words {
		s.eblock = make([]uint64, words)
	}
	clear(s.eblock)
	k := &ksearch{c: c, s: s, metric: opts.CostMetric, dst: d0}

	// First shortest path: no blocks.
	k.dijkstra()
	if math.IsInf(s.fdist[s0], 1) {
		observe("csr-kbest", k.stats)
		return nil, k.stats, nil
	}
	s.nodes = append(s.nodes[:0], s0)
	s.edges = s.edges[:0]
	if !k.extract(s0) {
		return nil, k.stats, fmt.Errorf("pathdisc: internal: no tight edge from %q", src)
	}
	s.kacc = append(s.kacc, s.carve(s.fdist[s0]))

	for len(s.kacc) < opts.K {
		// The root path's IDs. carve may regrow karena below; these slices
		// keep the old backing array, whose contents never change.
		prev := s.kacc[len(s.kacc)-1]
		prevNodes, prevEdges := s.pathNodes(prev), s.pathEdges(prev)
		for i := 0; i < len(prevNodes)-1; i++ {
			spur := prevNodes[i]
			// Block the root-path nodes before the spur node, and the
			// spur-position edge of every accepted path sharing the root.
			for _, v := range prevNodes[:i] {
				s.visited[v>>6] |= 1 << (uint(v) & 63)
			}
			clear(s.eblock)
			for _, p := range s.kacc {
				if s.prefixMatches(p, prevNodes, prevEdges, i) {
					k.blockEdge(s.pathEdges(p)[i])
				}
			}
			k.dijkstra()
			if !math.IsInf(s.fdist[spur], 1) {
				s.nodes = append(s.nodes[:0], prevNodes[:i+1]...)
				s.edges = append(s.edges[:0], prevEdges[:i]...)
				if k.extract(spur) {
					// Total cost keeps the right-to-left fold: the spur
					// tail's cost is fdist[spur] by construction, the root
					// edges fold on from the inside out.
					cost := s.fdist[spur]
					for j := i - 1; j >= 0; j-- {
						cost = c.edgeCost(opts.CostMetric, prevEdges[j]) + cost
					}
					dup := false
					for _, p := range s.kcand {
						if k.sameSeq(p) {
							dup = true
							break
						}
					}
					if !dup {
						s.kcand = append(s.kcand, s.carve(cost))
					}
				}
			}
			for _, v := range prevNodes[:i] {
				s.visited[v>>6] &^= 1 << (uint(v) & 63)
			}
		}
		if len(s.kcand) == 0 {
			break
		}
		mi := 0
		for j := 1; j < len(s.kcand); j++ {
			if k.lessKPath(s.kcand[j], s.kcand[mi]) {
				mi = j
			}
		}
		s.kacc = append(s.kacc, s.kcand[mi])
		s.kcand[mi] = s.kcand[len(s.kcand)-1]
		s.kcand = s.kcand[:len(s.kcand)-1]
	}
	clear(s.eblock)

	for _, p := range s.kacc {
		k.stats.MaxStack = max(k.stats.MaxStack, p.n)
	}
	k.stats.Paths = len(s.kacc)
	k.stats.Truncated = len(s.kacc) == opts.K
	observe("csr-kbest", k.stats)
	return c.materialise(s), k.stats, nil
}
