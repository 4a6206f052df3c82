package main

import (
	"fmt"

	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

// kbestHardLimit mirrors the server's enumeration hard limit
// (internal/server pathsHardLimit): the path count beyond which full
// enumeration is a structured 422, not an answer. The smoke run shrinks it
// so the over-limit mesh trips in milliseconds instead of seconds.
const kbestHardLimit = 1 << 20

// kbestWorkload is one row of the BENCH_kbest.json record: ranked
// discovery (KShortest) on one costed mesh. EnumPaths is the simple-path
// count full enumeration returns under the hard limit; EnumTripped marks
// the mesh where enumeration can only return the structured limit error.
type kbestWorkload struct {
	Topology    string  `json:"topology"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	CostMetric  string  `json:"costMetric"`
	K           int     `json:"k"`
	EnumPaths   int     `json:"enumPaths,omitempty"`
	EnumTripped bool    `json:"enumTripped,omitempty"`
	TopCost     float64 `json:"topCost"`
	KBest       timing  `json:"kbest"`
}

// expKBest times budgeted ranked discovery on complete meshes, the paper's
// O(n!) worst case, up to one whose simple-path count exceeds the hard
// limit: there enumeration must trip the limit while the ranked search
// still answers, and a work budget of 1 must trip the k-best limit.
func expKBest() (any, error) {
	const k = 5
	hardLimit := kbestHardLimit
	// Full-size: n=8 and n=10 (1,957 and 109,601 paths) stay enumerable;
	// n=12 holds ~9.9M simple paths between the endpoints, well past the
	// 2^20 hard limit. Smoke shrinks both the meshes and the hard limit.
	meshes := []struct {
		n         int
		metric    string
		overLimit bool
	}{{8, "hops", false}, {10, "throughput", false}, {12, "throughput", true}}
	if smoke {
		hardLimit = 1 << 10
		meshes[0].n, meshes[1].n, meshes[2].n = 6, 6, 8
	}
	fmt.Printf("  hard limit %d paths\n", hardLimit)
	fmt.Printf("  %-12s %-10s %2s %14s %20s\n", "topology", "metric", "k", "paths", "k-best")

	var rows []kbestWorkload
	for _, x := range meshes {
		g, err := topology.Mesh(x.n)
		if err != nil {
			return nil, err
		}
		// A deterministic synthetic stereotype cost view: edge i carries
		// 10+(7i mod 23) Mbps, the varied-throughput shape the model-backed
		// view resolves from link attributes.
		c := pathdisc.Compile(g)
		c.SetEdgeCosts(func(edgeID int) (float64, bool) {
			return 10 + float64((edgeID*7)%23), true
		})
		metric, err := pathdisc.ParseCostMetric(x.metric)
		if err != nil {
			return nil, err
		}
		src, dst := "n0", fmt.Sprintf("n%d", x.n-1)
		w := kbestWorkload{
			Topology:   fmt.Sprintf("mesh n=%d", x.n),
			Nodes:      g.NumNodes(),
			Edges:      g.NumEdges(),
			CostMetric: x.metric,
			K:          k,
		}

		paths, _, enumErr := c.AllPaths(src, dst, pathdisc.Options{HardMaxPaths: hardLimit})
		le, tripped := pathdisc.AsLimitError(enumErr)
		switch {
		case tripped != x.overLimit:
			return nil, fmt.Errorf("%s: enumeration under a %d-path hard limit: tripped=%t, want %t (err=%v)",
				w.Topology, hardLimit, tripped, x.overLimit, enumErr)
		case tripped && le.BudgetKind() != pathdisc.LimitPaths:
			return nil, fmt.Errorf("%s: limit kind = %q, want %q", w.Topology, le.BudgetKind(), pathdisc.LimitPaths)
		case enumErr != nil && !tripped:
			return nil, enumErr
		}
		if w.EnumTripped = tripped; !tripped {
			w.EnumPaths = len(paths)
		}

		rankOpts := pathdisc.Options{K: k, CostMetric: metric}
		ranked, _, err := c.KShortest(src, dst, rankOpts)
		if err != nil {
			return nil, err
		}
		w.TopCost = c.PathCost(metric, ranked[0])
		if w.KBest, err = measure(func() error {
			_, _, err := c.KShortest(src, dst, rankOpts)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Topology, err)
		}
		rows = append(rows, w)
		enumerated := fmt.Sprint(w.EnumPaths)
		if w.EnumTripped {
			enumerated = fmt.Sprintf("tripped >%d", hardLimit)
		}
		fmt.Printf("  %-12s %-10s %2d %14s %20v\n", w.Topology, w.CostMetric, w.K, enumerated, w.KBest)

		if x.overLimit {
			_, _, budgetErr := c.KShortest(src, dst, pathdisc.Options{K: k, MaxWork: 1})
			ble, ok := pathdisc.AsLimitError(budgetErr)
			if !ok || ble.BudgetKind() != pathdisc.LimitKBest {
				return nil, fmt.Errorf("MaxWork=1 produced %v, want a %q limit error", budgetErr, pathdisc.LimitKBest)
			}
			fmt.Printf("  work budget probe on %s: kind=%s need=%d limit=%d\n",
				w.Topology, ble.BudgetKind(), ble.Need, ble.Limit)
		}
	}
	return rows, nil
}
