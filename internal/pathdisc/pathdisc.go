// Package pathdisc implements the path-discovery algorithm of the UPSIM
// methodology (Section V-D): given the graph view of an ICT infrastructure
// and a service mapping pair (requester, provider), it enumerates all simple
// paths between the two components. The paper chooses "a depth-first search
// (DFS) algorithm with a path tracking mechanism to avoid live-locks within
// cycles". The kernel is that recursive DFS over a CSR lowering of the
// graph (Compile, Compiled.AllPaths), with Compiled.CountPaths as its
// count-only run for the dense-graph scaling study and Compiled.KShortest as
// its ranked counterpart. The redundancy ablation's one minimum-hop path per
// pair is ranked discovery with K = 1. The map-based walker the property and
// fuzz tests compare the kernel against lives in oracle_test.go.
package pathdisc

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"upsim/internal/obs"
)

// Search-effort metrics, one observation per completed enumeration,
// partitioned by algorithm variant. The exponential buckets follow the
// paper's complexity discussion (§V-D): effort grows factorially with
// density, so linear buckets would saturate immediately.
var (
	searchBuckets = obs.ExpBuckets(1, 4, 12)

	mNodesVisited = obs.NewHistogram("upsim_pathdisc_nodes_visited",
		"Nodes expanded per path enumeration.", searchBuckets, "algorithm")
	mEdgeVisits = obs.NewHistogram("upsim_pathdisc_edge_visits",
		"Edges traversed per path enumeration, including dead ends.", searchBuckets, "algorithm")
	mPathsFound = obs.NewHistogram("upsim_pathdisc_paths_found",
		"Simple paths reported per enumeration.", searchBuckets, "algorithm")
	mMaxStack = obs.NewHistogram("upsim_pathdisc_max_stack",
		"Deepest DFS stack per enumeration, in nodes.", searchBuckets, "algorithm")
	mTruncated = obs.NewCounter("upsim_pathdisc_truncated_total",
		"Enumerations stopped early by MaxPaths.", "algorithm")
	mPruned = obs.NewHistogram("upsim_pathdisc_pruned_expansions",
		"Expansions skipped by reachability pruning per enumeration (compiled kernel only).",
		searchBuckets, "algorithm")
)

// observe feeds one enumeration's Stats into the per-algorithm histograms.
func observe(algorithm string, s Stats) {
	mNodesVisited.With(algorithm).Observe(float64(s.NodeVisits))
	mEdgeVisits.With(algorithm).Observe(float64(s.EdgeVisits))
	mPathsFound.With(algorithm).Observe(float64(s.Paths))
	mMaxStack.With(algorithm).Observe(float64(s.MaxStack))
	if s.Pruned > 0 {
		mPruned.With(algorithm).Observe(float64(s.Pruned))
	}
	if s.Truncated {
		mTruncated.With(algorithm).Inc()
	}
}

// Path is one simple path: the visited node names in order, plus the IDs of
// the traversed edges (len(Edges) == len(Nodes)-1). Parallel edges between
// the same node pair yield distinct paths that differ only in Edges.
type Path struct {
	Nodes []string
	Edges []int
}

// String renders the path in the paper's notation, e.g.
// "t1—e1—d1—c1—d4—printS".
func (p Path) String() string { return strings.Join(p.Nodes, "—") }

// Len returns the number of edges (hops) in the path.
func (p Path) Len() int { return len(p.Edges) }

// equalKey returns a canonical comparison key including edge identities.
// It is called O(n log n) times by Sort, so it stays allocation-lean: one
// sized byte buffer, edge IDs appended with strconv (no fmt interface
// boxing). TestEqualKeyAllocs guards the allocation budget.
func (p Path) equalKey() string {
	size := 0
	for _, n := range p.Nodes {
		size += len(n) + 14 // "|<edge id>|" separator upper bound
	}
	buf := make([]byte, 0, size)
	for i, n := range p.Nodes {
		if i > 0 {
			buf = append(buf, '|')
			buf = strconv.AppendInt(buf, int64(p.Edges[i-1]), 10)
			buf = append(buf, '|')
		}
		buf = append(buf, n...)
	}
	return string(buf)
}

// Options controls path enumeration.
type Options struct {
	// MaxDepth bounds the path length in edges; 0 means unbounded. Paths
	// longer than MaxDepth are not reported and not explored further.
	MaxDepth int
	// MaxPaths stops enumeration after this many paths; 0 means unbounded.
	MaxPaths int
	// HardMaxPaths aborts the enumeration with a *LimitError once more than
	// this many paths exist; 0 disables the limit. Unlike MaxPaths — which
	// truncates the result and reports Stats.Truncated, leaving the caller a
	// usable lower bound — exceeding the hard limit is an error: the caller
	// declared that an enumeration this large is a mistake (a dense mesh fed
	// to an interactive endpoint), not an answer to return partially.
	HardMaxPaths int

	// K switches discovery to the ranked mode (Compiled.KShortest): return
	// the K cheapest simple paths under CostMetric instead of enumerating
	// all of them. 0 (the default) means full enumeration; the enumeration
	// entry points ignore it.
	K int
	// CostMetric selects the edge-cost model of ranked discovery. The zero
	// value CostHops ranks by hop count; CostThroughput uses the stereotype
	// cost view installed by SetEdgeCosts. Ignored by the enumeration entry
	// points.
	CostMetric CostMetric
	// MaxWork bounds the ranked search's K·V·E work estimate; exceeding it
	// returns a *LimitError with Kind LimitKBest before any search runs. 0
	// disables the bound. Ignored by the enumeration entry points.
	MaxWork int
}

// Limit-error kinds: which budget aborted the search. The zero value (the
// empty string) is normalised to LimitPaths so errors constructed before
// ranked discovery existed keep their meaning.
const (
	// LimitPaths is the enumeration hard limit (Options.HardMaxPaths).
	LimitPaths = "paths"
	// LimitKBest is the ranked-discovery work envelope (Options.MaxWork).
	LimitKBest = "kbest"
)

// LimitError reports a search aborted by a budget: the enumeration hard
// limit (Kind LimitPaths — the graph holds more than Limit simple paths
// between the pair) or the ranked-discovery work envelope (Kind LimitKBest
// — the K·V·E estimate Need exceeds Limit). It mirrors the structured
// depend.BudgetError contract so callers can surface the pair, the kind and
// the sizes without parsing the message.
type LimitError struct {
	// Src and Dst are the search endpoints.
	Src, Dst string
	// Kind names the exceeded budget (LimitPaths, LimitKBest); empty means
	// LimitPaths.
	Kind string
	// Need is the estimated work or path count that exceeded the budget
	// (0 when unknown: the enumeration aborts at Limit+1 without counting
	// further).
	Need int
	// Limit is the bound that was exceeded.
	Limit int
}

// BudgetKind returns the exceeded budget's kind with the empty value
// normalised to LimitPaths.
func (e *LimitError) BudgetKind() string {
	if e.Kind == "" {
		return LimitPaths
	}
	return e.Kind
}

// Error renders the limit failure.
func (e *LimitError) Error() string {
	if e.BudgetKind() == LimitKBest {
		return fmt.Sprintf("pathdisc: ranked discovery between %q and %q needs ~%d work units (limit %d); lower k or raise the work budget", e.Src, e.Dst, e.Need, e.Limit)
	}
	return fmt.Sprintf("pathdisc: more than %d simple paths between %q and %q; raise the hard limit or bound the search with maxDepth/maxPaths", e.Limit, e.Src, e.Dst)
}

// AsLimitError unwraps err to a *LimitError when one is in the chain.
func AsLimitError(err error) (*LimitError, bool) {
	var le *LimitError
	if errors.As(err, &le) {
		return le, true
	}
	return nil, false
}

// Stats reports instrumentation counters from one enumeration, used by the
// scalability experiments to expose the search effort behind the paper's
// complexity discussion.
type Stats struct {
	// EdgeVisits counts traversed edge expansions, including those that
	// dead-ended.
	EdgeVisits int
	// NodeVisits counts node expansions, including the initial requester
	// and re-entries of the same node along different partial paths. Each
	// traversed edge enters exactly one node, so for a completed search
	// NodeVisits = EdgeVisits + 1.
	NodeVisits int
	// MaxStack is the deepest DFS stack observed (in nodes).
	MaxStack int
	// Paths is the number of reported paths.
	Paths int
	// Pruned counts expansions skipped by the kernel's
	// destination-reachability pruning (see Compile): dead ends and detours
	// longer than MaxDepth allows. They are not counted in EdgeVisits or
	// NodeVisits.
	Pruned int
	// Truncated reports whether MaxPaths stopped the enumeration early.
	Truncated bool
}

// Sort orders paths canonically: by length, then lexicographically by node
// sequence, then by edge IDs. It makes outputs of different algorithm
// variants directly comparable.
func Sort(paths []Path) {
	sort.Slice(paths, func(i, j int) bool {
		a, b := paths[i], paths[j]
		if a.Len() != b.Len() {
			return a.Len() < b.Len()
		}
		return a.equalKey() < b.equalKey()
	})
}

// Equal reports whether two path slices contain the same paths, regardless
// of order.
func Equal(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Path(nil), a...)
	bs := append([]Path(nil), b...)
	Sort(as)
	Sort(bs)
	for i := range as {
		if as[i].equalKey() != bs[i].equalKey() {
			return false
		}
	}
	return true
}
