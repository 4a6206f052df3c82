package pathdisc

// The map-based reference walkers of the CSR kernel: recursive DFS with path
// tracking over the string-keyed topology.Graph, one map lookup and one
// Edge copy per expansion and no reachability pruning. The property and
// fuzz tests compare Compiled.AllPaths and Compiled.CountPaths against them.
// They share the kernel's error-format constants, so the compared error
// texts cannot drift apart, and they report no metrics.

import (
	"fmt"

	"upsim/internal/topology"
)

func validateEndpoints(g *topology.Graph, src, dst string) error {
	if !g.HasNode(src) {
		return fmt.Errorf(errFmtRequesterMissing, src)
	}
	if !g.HasNode(dst) {
		return fmt.Errorf(errFmtProviderMissing, dst)
	}
	if src == dst {
		return fmt.Errorf(errFmtSameEndpoints, src)
	}
	return nil
}

// oracleAllPaths enumerates all simple paths from src to dst using
// recursive DFS with path tracking — the algorithm the paper selected — on
// the map-based graph. Results are deterministic: edges are expanded in
// insertion order. It explores dead-end subtrees in full, so its Stats
// never report Pruned expansions.
func oracleAllPaths(g *topology.Graph, src, dst string, opts Options) ([]Path, Stats, error) {
	if err := validateEndpoints(g, src, dst); err != nil {
		return nil, Stats{}, err
	}
	var (
		stats   Stats
		out     []Path
		nodes   = []string{src}
		edges   []int
		visited = map[string]bool{src: true}
		hardHit bool
	)
	var rec func(cur string) bool // returns false to abort (MaxPaths or hard limit hit)
	rec = func(cur string) bool {
		if len(nodes) > stats.MaxStack {
			stats.MaxStack = len(nodes)
		}
		for _, id := range g.IncidentEdges(cur) {
			e, _ := g.Edge(id)
			next := e.Other(cur)
			if visited[next] {
				continue // path tracking: avoid live-locks within cycles
			}
			if opts.MaxDepth > 0 && len(edges)+1 > opts.MaxDepth {
				continue
			}
			stats.EdgeVisits++
			nodes = append(nodes, next)
			edges = append(edges, id)
			if next == dst {
				out = append(out, Path{Nodes: append([]string(nil), nodes...), Edges: append([]int(nil), edges...)})
				stats.Paths++
				if opts.HardMaxPaths > 0 && stats.Paths > opts.HardMaxPaths {
					hardHit = true
					nodes = nodes[:len(nodes)-1]
					edges = edges[:len(edges)-1]
					return false
				}
				if opts.MaxPaths > 0 && stats.Paths >= opts.MaxPaths {
					stats.Truncated = true
					nodes = nodes[:len(nodes)-1]
					edges = edges[:len(edges)-1]
					return false
				}
			} else {
				visited[next] = true
				ok := rec(next)
				visited[next] = false
				if !ok {
					nodes = nodes[:len(nodes)-1]
					edges = edges[:len(edges)-1]
					return false
				}
			}
			nodes = nodes[:len(nodes)-1]
			edges = edges[:len(edges)-1]
		}
		return true
	}
	rec(src)
	if hardHit {
		return nil, stats, &LimitError{Src: src, Dst: dst, Limit: opts.HardMaxPaths}
	}
	stats.NodeVisits = stats.EdgeVisits + 1
	return out, stats, nil
}

// oracleCountPaths counts all simple paths from src to dst without storing
// them. MaxPaths, MaxDepth and HardMaxPaths from opts are honoured.
func oracleCountPaths(g *topology.Graph, src, dst string, opts Options) (int, Stats, error) {
	if err := validateEndpoints(g, src, dst); err != nil {
		return 0, Stats{}, err
	}
	var (
		stats   Stats
		count   int
		depth   int
		visited = map[string]bool{src: true}
		hardHit bool
	)
	var rec func(cur string) bool
	rec = func(cur string) bool {
		if depth+1 > stats.MaxStack {
			stats.MaxStack = depth + 1
		}
		for _, id := range g.IncidentEdges(cur) {
			e, _ := g.Edge(id)
			next := e.Other(cur)
			if visited[next] {
				continue
			}
			if opts.MaxDepth > 0 && depth+1 > opts.MaxDepth {
				continue
			}
			stats.EdgeVisits++
			if next == dst {
				count++
				stats.Paths++
				if opts.HardMaxPaths > 0 && count > opts.HardMaxPaths {
					hardHit = true
					return false
				}
				if opts.MaxPaths > 0 && count >= opts.MaxPaths {
					stats.Truncated = true
					return false
				}
				continue
			}
			visited[next] = true
			depth++
			ok := rec(next)
			depth--
			visited[next] = false
			if !ok {
				return false
			}
		}
		return true
	}
	rec(src)
	if hardHit {
		return 0, stats, &LimitError{Src: src, Dst: dst, Limit: opts.HardMaxPaths}
	}
	stats.NodeVisits = stats.EdgeVisits + 1
	return count, stats, nil
}
