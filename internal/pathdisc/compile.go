package pathdisc

// This file implements the compiled path-discovery kernel: a one-time
// lowering of the string-keyed topology.Graph into an integer-indexed CSR
// (compressed sparse row) form over which the exponential all-simple-paths
// search runs allocation-free per expansion. A walk over the graph itself
// (the reference walker of oracle_test.go) pays a string hash, an Edge
// struct copy and a string compare per expansion, plus one map allocation
// per expanded node; the kernel replaces all of that with array indexing and
// a []uint64 visited bitset, and additionally prunes dead-end subtrees with a reverse BFS from
// the provider before the exponential search enters them. Found paths are
// recorded as int32 IDs in pooled scratch and materialised once, at exact
// size, when the search ends. See DESIGN.md §9.

import (
	"fmt"
	"math"
	"sync"

	"upsim/internal/obs"
	"upsim/internal/topology"
)

// Compiled-kernel metrics: compilation events and sizes, exposed on
// /metrics next to the per-algorithm search histograms.
var (
	mCompile = obs.NewCounter("upsim_pathdisc_compile_total",
		"Topology graphs lowered to CSR form.")
	mCompiledNodes = obs.NewGauge("upsim_pathdisc_compiled_nodes",
		"Node count of the most recently compiled graph.")
	mCompiledEdges = obs.NewGauge("upsim_pathdisc_compiled_edges",
		"Edge count of the most recently compiled graph.")
)

// Error formats of endpoint validation, shared with the map-based walker of
// oracle_test.go so that the tests compare one text.
const (
	errFmtRequesterMissing = "pathdisc: requester %q not in infrastructure"
	errFmtProviderMissing  = "pathdisc: provider %q not in infrastructure"
	errFmtSameEndpoints    = "pathdisc: requester and provider are the same component %q"
)

// Compiled is the integer-indexed CSR form of a topology.Graph, built once
// by Compile and reusable across any number of enumerations (it is
// immutable after construction and safe for concurrent use; per-search
// scratch comes from an internal sync.Pool). Node IDs are dense ints in
// graph insertion order; adjacency entries keep the graph's edge insertion
// order, so enumeration follows the graph's own edge order.
type Compiled struct {
	names []string         // dense node ID -> node name
	index map[string]int32 // node name -> dense node ID

	// CSR adjacency: entries [adjStart[v], adjStart[v+1]) are node v's
	// incident edges, as (opposite endpoint, topology edge ID) pairs.
	adjStart []int32
	adjNode  []int32
	adjEdge  []int32

	numEdges  int
	maxDegree int
	maxEdgeID int     // largest topology edge ID seen (IDs are never reused)
	branching float64 // mean adjacency entries per node (2E/N)

	// Stereotype cost view of ranked discovery (kbest.go): per-edge-ID
	// traversal cost and throughput, resolved once by SetEdgeCosts and
	// indexed by topology edge ID. Nil until SetEdgeCosts installs a view;
	// CostThroughput then falls back to hop costs.
	costOf   []float64
	costMbps []float64

	// pool holds *scratch sized for the node count; Compile sets its New.
	pool sync.Pool
}

// scratch is the reusable per-enumeration state: the visited bitset, the
// reverse-BFS distance table with its queue, the current path buffers and
// the found-path records. One scratch serves one enumeration at a time; the
// pool amortises them across enumerations.
type scratch struct {
	visited []uint64 // bitset, one bit per node, all zero between uses
	dist    []int32  // hop distance to the provider, -1 when unreachable
	queue   []int32
	nodes   []int32
	edges   []int32

	// Found-path records of both kernels: the int32 node and edge IDs of
	// every recorded path, back to back in karena, and the kpath spans of
	// it — AllPaths' emitted paths and KShortest's accepted ones in kacc,
	// Yen's pending candidates in kcand.
	karena []int32
	kacc   []kpath
	kcand  []kpath

	// Ranked-discovery state (kbest.go): the Dijkstra distance table and
	// frontier heap, and the blocked-edge bitset (all zero between uses,
	// like visited).
	fdist  []float64
	kheap  []kheapEntry
	eblock []uint64
}

// Compile lowers a topology graph into its CSR form. The cost is one pass
// over nodes and edges — O(V+E) — amortised across every subsequent
// enumeration: the Generator compiles once per model and reuses the kernel
// for all mapping pairs, batch items and perspectives.
func Compile(g *topology.Graph) *Compiled {
	n := g.NumNodes()
	c := &Compiled{
		names:    make([]string, n),
		index:    make(map[string]int32, n),
		numEdges: g.NumEdges(),
	}
	for i := range c.names {
		c.names[i] = g.NodeNameAt(i)
		c.index[c.names[i]] = int32(i)
	}
	c.adjStart = make([]int32, n+1)
	total := 0
	for i := 0; i < n; i++ {
		d := g.Degree(c.names[i])
		total += d
		if d > c.maxDegree {
			c.maxDegree = d
		}
		c.adjStart[i+1] = int32(total)
	}
	c.adjNode = make([]int32, total)
	c.adjEdge = make([]int32, total)
	pos := 0
	for i := 0; i < n; i++ {
		name := c.names[i]
		for _, id := range g.IncidentEdges(name) {
			e, _ := g.Edge(id)
			o := c.index[e.Other(name)]
			c.adjNode[pos] = o
			c.adjEdge[pos] = int32(id)
			pos++
			if id > c.maxEdgeID {
				c.maxEdgeID = id
			}
		}
	}
	if n > 0 {
		c.branching = float64(total) / float64(n)
	}
	words := (n + 63) / 64
	c.pool.New = func() any {
		return &scratch{
			visited: make([]uint64, words),
			dist:    make([]int32, n),
			queue:   make([]int32, 0, n),
			nodes:   make([]int32, 0, 16),
			edges:   make([]int32, 0, 16),
			// Room for a handful of campus-sized paths, so the first search
			// on a fresh pool does not regrow its records from empty.
			karena: make([]int32, 0, 128),
			kacc:   make([]kpath, 0, 16),
			fdist:  make([]float64, n),
		}
	}
	mCompile.With().Inc()
	mCompiledNodes.With().Set(int64(n))
	mCompiledEdges.With().Set(int64(c.numEdges))
	return c
}

// NumNodes returns the compiled node count.
func (c *Compiled) NumNodes() int { return len(c.names) }

// NodeID returns the dense node ID of the named node: its position in the
// graph's insertion order.
func (c *Compiled) NodeID(name string) (int, bool) {
	id, ok := c.index[name]
	return int(id), ok
}

// NumEdges returns the compiled edge count (parallel edges counted).
func (c *Compiled) NumEdges() int { return c.numEdges }

// Branching returns the mean adjacency entries per node (2E/N), the
// branching-factor column of the scalability experiment.
func (c *Compiled) Branching() float64 { return c.branching }

// MaxDegree returns the largest node degree.
func (c *Compiled) MaxDegree() int { return c.maxDegree }

// getScratch takes a clean scratch from the pool.
func (c *Compiled) getScratch() *scratch { return c.pool.Get().(*scratch) }

// putScratch clears the visited bitset (the only state that must be clean on
// reuse; dist is refilled per enumeration) and returns s to the pool.
func (c *Compiled) putScratch(s *scratch) {
	clear(s.visited)
	clear(s.eblock)
	s.nodes = s.nodes[:0]
	s.edges = s.edges[:0]
	s.kheap = s.kheap[:0]
	s.karena = s.karena[:0]
	s.kacc = s.kacc[:0]
	s.kcand = s.kcand[:0]
	c.pool.Put(s)
}

func (c *Compiled) validate(src, dst string) (int32, int32, error) {
	s, ok := c.index[src]
	if !ok {
		return 0, 0, fmt.Errorf(errFmtRequesterMissing, src)
	}
	d, ok := c.index[dst]
	if !ok {
		return 0, 0, fmt.Errorf(errFmtProviderMissing, dst)
	}
	if s == d {
		return 0, 0, fmt.Errorf(errFmtSameEndpoints, src)
	}
	return s, d, nil
}

// reverseBFS fills s.dist with the hop distance from every node to dst
// (-1 when dst is unreachable) — the destination-reachability pruning pass.
// Soundness: any simple path suffix from a node v to dst is a walk proving
// dist[v] >= 0 and dist[v] <= remaining hops, so skipping nodes that fail
// either test can never remove a reportable path; it only skips subtrees in
// which every continuation dead-ends (see DESIGN.md §9 for the sketch).
//
//upsim:hotpath
func (c *Compiled) reverseBFS(s *scratch, dst int32) {
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.dist[dst] = 0
	// Walk the queue with a head index: popping by reslicing would leave
	// the pooled buffer with no capacity for the next search.
	s.queue = append(s.queue[:0], dst)
	for h := 0; h < len(s.queue); h++ {
		cur := s.queue[h]
		for j := c.adjStart[cur]; j < c.adjStart[cur+1]; j++ {
			o := c.adjNode[j]
			if s.dist[o] < 0 {
				s.dist[o] = s.dist[cur] + 1
				s.queue = append(s.queue, o)
			}
		}
	}
}

// depthBudget converts Options.MaxDepth into the pruning budget.
func depthBudget(opts Options) int {
	if opts.MaxDepth > 0 {
		return opts.MaxDepth
	}
	return math.MaxInt32
}

// csrSearch is one CSR enumeration: the DFS state and its statistics. Found
// paths accumulate in the pooled scratch (s.kacc over s.karena) until
// AllPaths materialises them; a count-only search records none.
type csrSearch struct {
	c         *Compiled
	s         *scratch
	dst       int32
	budget    int
	maxPaths  int
	hardMax   int // Options.HardMaxPaths; exceeding it sets overflow
	countOnly bool
	overflow  bool
	stats     Stats
}

//upsim:hotpath bitset membership ops, one per DFS expansion
func (q *csrSearch) visit(v int32) { q.s.visited[v>>6] |= 1 << (uint(v) & 63) }

//upsim:hotpath
func (q *csrSearch) unvisit(v int32) { q.s.visited[v>>6] &^= 1 << (uint(v) & 63) }

//upsim:hotpath
func (q *csrSearch) isVisited(v int32) bool { return q.s.visited[v>>6]&(1<<(uint(v)&63)) != 0 }

// emit counts the current path and, unless the search only counts, records
// it in the pooled scratch (s.carve), the record format KShortest keeps its
// accepted paths in. Nothing escapes the search; AllPaths materialises the
// records once the enumeration is over.
//
//upsim:hotpath
func (q *csrSearch) emit() {
	if !q.countOnly {
		q.s.kacc = append(q.s.kacc, q.s.carve(0))
	}
	q.stats.Paths++
}

// materialise converts the path records in s.kacc into the returned []Path
// at exact size: one counting pass, then three allocations — the []Path,
// one []string of node names and one []int of edge IDs shared by every
// path. Full slice expressions cap each path at its own region, so a caller
// appending to one returned Path reallocates instead of clobbering the
// next. Nothing returned aliases the pooled scratch. Zero records
// materialise as nil.
func (c *Compiled) materialise(s *scratch) []Path {
	if len(s.kacc) == 0 {
		return nil
	}
	nn := 0
	for _, p := range s.kacc {
		nn += p.n
	}
	out := make([]Path, len(s.kacc))
	names := make([]string, nn)
	edges := make([]int, nn-len(s.kacc)) // a path has one edge fewer than nodes
	for i, p := range s.kacc {
		n, e := names[:p.n:p.n], edges[:p.n-1:p.n-1]
		names, edges = names[p.n:], edges[p.n-1:]
		for j, v := range s.pathNodes(p) {
			n[j] = c.names[v]
		}
		for j, id := range s.pathEdges(p) {
			e[j] = int(id)
		}
		out[i] = Path{Nodes: n, Edges: e}
	}
	return out
}

// rec is the recursive CSR DFS with path tracking. It expands edges in the
// graph's insertion order and applies the MaxDepth, MaxPaths and
// HardMaxPaths bounds as the map-based walker of oracle_test.go does, so
// the output sequence is identical; the only behavioural difference is that
// pruned expansions (dead ends, or detours provably longer than the depth
// budget) are skipped before being traversed, which lowers EdgeVisits and is
// counted in Stats.Pruned. Returns false to abort on MaxPaths or the hard
// limit.
//
//upsim:hotpath
func (q *csrSearch) rec(cur int32) bool {
	if len(q.s.nodes) > q.stats.MaxStack {
		q.stats.MaxStack = len(q.s.nodes)
	}
	adjNode, adjEdge := q.c.adjNode, q.c.adjEdge
	for j := q.c.adjStart[cur]; j < q.c.adjStart[cur+1]; j++ {
		next := adjNode[j]
		if q.isVisited(next) {
			continue
		}
		if d := q.s.dist[next]; d < 0 || len(q.s.edges)+1+int(d) > q.budget {
			q.stats.Pruned++
			continue
		}
		q.stats.EdgeVisits++
		q.s.nodes = append(q.s.nodes, next)
		q.s.edges = append(q.s.edges, adjEdge[j])
		if next == q.dst {
			q.emit()
			if q.hardMax > 0 && q.stats.Paths > q.hardMax {
				q.overflow = true
				q.pop()
				return false
			}
			if q.maxPaths > 0 && q.stats.Paths >= q.maxPaths {
				q.stats.Truncated = true
				q.pop()
				return false
			}
		} else {
			q.visit(next)
			ok := q.rec(next)
			q.unvisit(next)
			if !ok {
				q.pop()
				return false
			}
		}
		q.pop()
	}
	return true
}

//upsim:hotpath
func (q *csrSearch) pop() {
	q.s.nodes = q.s.nodes[:len(q.s.nodes)-1]
	q.s.edges = q.s.edges[:len(q.s.edges)-1]
}

// AllPaths enumerates all simple paths from src to dst over the compiled
// graph with the paper's DFS with path tracking. Results are deterministic:
// edges are expanded in the graph's insertion order. Expansions that cannot
// reach dst within MaxDepth are pruned before they are traversed (counted in
// Stats.Pruned, not in EdgeVisits), which changes the effort, never the
// paths.
func (c *Compiled) AllPaths(src, dst string, opts Options) ([]Path, Stats, error) {
	s0, d0, err := c.validate(src, dst)
	if err != nil {
		return nil, Stats{}, err
	}
	s := c.getScratch()
	defer c.putScratch(s)
	stats, ok := c.search(s, s0, d0, opts, false)
	if !ok {
		return nil, stats, &LimitError{Src: src, Dst: dst, Limit: opts.HardMaxPaths}
	}
	observe("csr-dfs", stats)
	return c.materialise(s), stats, nil
}

// CountPaths counts all simple paths from src to dst without storing them,
// so that the factorial-growth experiments of Section V-D can run on dense
// graphs whose full enumeration would not fit in memory. It is AllPaths'
// search without the path records: MaxPaths, MaxDepth and HardMaxPaths are
// honoured as there, and the count equals the number of paths AllPaths
// returns for the same options.
func (c *Compiled) CountPaths(src, dst string, opts Options) (int, Stats, error) {
	s0, d0, err := c.validate(src, dst)
	if err != nil {
		return 0, Stats{}, err
	}
	s := c.getScratch()
	defer c.putScratch(s)
	stats, ok := c.search(s, s0, d0, opts, true)
	if !ok {
		return 0, stats, &LimitError{Src: src, Dst: dst, Limit: opts.HardMaxPaths}
	}
	observe("count", stats)
	return stats.Paths, stats, nil
}

// search runs one enumeration from s0 to d0 in scratch s and reports its
// statistics; ok is false when HardMaxPaths was exceeded.
func (c *Compiled) search(s *scratch, s0, d0 int32, opts Options, countOnly bool) (stats Stats, ok bool) {
	c.reverseBFS(s, d0)
	q := &csrSearch{
		c: c, s: s, dst: d0, budget: depthBudget(opts), maxPaths: opts.MaxPaths,
		hardMax: opts.HardMaxPaths, countOnly: countOnly,
	}
	if s.dist[s0] >= 0 { // disconnected pairs skip the search entirely
		q.visit(s0)
		s.nodes = append(s.nodes, s0)
		q.rec(s0)
	}
	if q.overflow {
		return q.stats, false
	}
	q.stats.NodeVisits = q.stats.EdgeVisits + 1
	return q.stats, true
}
