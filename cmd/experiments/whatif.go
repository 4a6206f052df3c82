package main

import (
	"fmt"

	"upsim/internal/depend"
	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

// whatifWorkload is one row of the BENCH_whatif.json record: one
// (topology, service) pair and the two ways to bring its compiled
// dependability kernel up to date after one component fails permanently.
// Patch is PatchRemoveComponent in place (DESIGN.md §13), the engine's
// whole per-delta compiled work; Recompile is depend.Compile of the
// equivalently filtered structure.
type whatifWorkload struct {
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	// PathSets is the number of minimal path sets of the registered service
	// (across all its atomic services), Components the interned universe
	// size (devices plus link components).
	PathSets   int    `json:"servicePathSets"`
	Components int    `json:"components"`
	Patch      timing `json:"patch"`
	Recompile  timing `json:"recompile"`
}

// whatifStructure enumerates the service's paths on the compiled graph and
// builds the depend structure the way the live engine sees it: every path
// becomes one minimal path set holding its device names and link
// components. Several endpoint pairs act as the atomic services of one
// composite, so the kernel carries a realistic multi-stage set population.
func whatifStructure(csr *pathdisc.Compiled, pairs [][2]string, opts pathdisc.Options) (*depend.ServiceStructure, []pathdisc.Path, error) {
	st := &depend.ServiceStructure{}
	var first []pathdisc.Path
	for i, pr := range pairs {
		paths, _, err := csr.AllPaths(pr[0], pr[1], opts)
		if err != nil {
			return nil, nil, err
		}
		if len(paths) == 0 {
			return nil, nil, fmt.Errorf("no paths %s -> %s", pr[0], pr[1])
		}
		if i == 0 {
			first = paths
		}
		a := depend.AtomicStructure{Name: fmt.Sprintf("stage%d", i)}
		for _, p := range paths {
			ps := make(depend.PathSet, 0, 2*len(p.Nodes)-1)
			for j, n := range p.Nodes {
				ps = append(ps, n)
				if j > 0 {
					ps = append(ps, depend.LinkComponentID(p.Nodes[j-1], n, p.Edges[j-1]))
				}
			}
			a.PathSets = append(a.PathSets, ps)
		}
		st.AtomicServices = append(st.AtomicServices, a)
	}
	return st, first, nil
}

// whatifVictim picks the component whose permanent failure the benchmark
// applies: a device on the first enumerated path that appears in some but
// not all path sets of every atomic service, so conditioning on its failure
// leaves the service alive (the steady-state patch case; death is the rare
// terminal event and is covered by the internal/whatif tests instead).
func whatifVictim(st *depend.ServiceStructure, path pathdisc.Path) (string, error) {
	for i := 1; i+1 < len(path.Nodes); i++ {
		c := path.Nodes[i]
		ok := true
		for _, a := range st.AtomicServices {
			hit := 0
			for _, ps := range a.PathSets {
				for _, m := range ps {
					if m == c {
						hit++
						break
					}
				}
			}
			if hit == len(a.PathSets) {
				ok = false // single point of failure: dropping it kills the stage
				break
			}
		}
		if ok {
			return c, nil
		}
	}
	return "", fmt.Errorf("no non-critical component on the first path")
}

// whatifFilter rebuilds the post-delta structure the way a cold
// recompilation would: every path set containing the failed component is
// gone. This is the input of the recompile variant, so both update paths
// produce the same compiled state.
func whatifFilter(st *depend.ServiceStructure, victim string) *depend.ServiceStructure {
	out := &depend.ServiceStructure{}
	for _, a := range st.AtomicServices {
		na := depend.AtomicStructure{Name: a.Name}
		for _, ps := range a.PathSets {
			keep := true
			for _, m := range ps {
				if m == victim {
					keep = false
					break
				}
			}
			if keep {
				na.PathSets = append(na.PathSets, ps)
			}
		}
		out.AtomicServices = append(out.AtomicServices, na)
	}
	return out
}

// expWhatIf times both update paths of the live-topology what-if engine
// after one topology delta (one component conditioned permanently failed).
// The recompile row re-runs only depend.Compile on already-known inputs,
// not path re-enumeration or UPSIM regeneration.
func expWhatIf() (any, error) {
	type workload struct {
		name  string
		build func() (*topology.Graph, error)
		pairs [][2]string
		opts  pathdisc.Options
	}
	ws := []workload{
		{
			// The low-branching Section V-D regime: long rungs, few loops.
			name:  "ladder n=12",
			build: func() (*topology.Graph, error) { return topology.Ladder(12) },
			pairs: [][2]string{{"n0", "n23"}, {"n23", "n0"}},
			opts:  pathdisc.Options{},
		},
		{
			// The paper's deferred cloud case: cross-pod flows of one
			// composite service over the k=4 fat-tree, valley-free depth.
			name:  "fat-tree k=4",
			build: func() (*topology.Graph, error) { return topology.FatTree(4) },
			pairs: [][2]string{
				{"h0-0-0", "h3-1-1"}, {"h1-0-0", "h2-1-0"},
				{"h0-1-0", "h1-1-1"}, {"h2-0-1", "h3-0-0"},
			},
			opts: pathdisc.Options{MaxDepth: 6},
		},
		{
			// The O(n!) dense case, capped by depth like the engine does.
			name:  "mesh n=8",
			build: func() (*topology.Graph, error) { return topology.Mesh(8) },
			pairs: [][2]string{{"n0", "n7"}},
			opts:  pathdisc.Options{MaxDepth: 5},
		},
	}
	if !smoke {
		ws = append(ws, workload{
			name:  "fat-tree k=6",
			build: func() (*topology.Graph, error) { return topology.FatTree(6) },
			pairs: [][2]string{
				{"h0-0-0", "h5-2-2"}, {"h1-1-0", "h4-0-1"},
				{"h2-2-1", "h3-1-2"}, {"h0-2-0", "h2-0-2"},
			},
			opts: pathdisc.Options{MaxDepth: 6},
		})
	}

	fmt.Printf("  %-14s %6s %6s %6s %6s %20s %20s\n",
		"topology", "nodes", "edges", "sets", "comps", "patch", "recompile")
	var rows []whatifWorkload
	for _, x := range ws {
		g, err := x.build()
		if err != nil {
			return nil, err
		}
		st, firstPaths, err := whatifStructure(pathdisc.Compile(g), x.pairs, x.opts)
		if err != nil {
			return nil, err
		}
		cs := depend.Compile(st)
		sets := 0
		for _, a := range st.AtomicServices {
			sets += len(a.PathSets)
		}

		// The permanently failed component, pre-dropped once so every timed
		// patch run measures the steady-state full-scan cost (same asymptotic
		// work, no state drift across runs), and pre-filtered once so the
		// recompile variant rebuilds the identical post-delta kernel.
		victim, err := whatifVictim(st, firstPaths[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.name, err)
		}
		if _, err := cs.PatchRemoveComponent(victim); err != nil {
			return nil, err
		}
		filtered := whatifFilter(st, victim)

		w := whatifWorkload{
			Topology:   x.name,
			Nodes:      g.NumNodes(),
			Edges:      g.NumEdges(),
			PathSets:   sets,
			Components: cs.NumComponents(),
		}
		if w.Patch, err = measure(func() error {
			_, err := cs.PatchRemoveComponent(victim)
			return err
		}); err != nil {
			return nil, err
		}
		if w.Recompile, err = measure(func() error {
			depend.Compile(filtered)
			return nil
		}); err != nil {
			return nil, err
		}
		rows = append(rows, w)
		fmt.Printf("  %-14s %6d %6d %6d %6d %20v %20v\n",
			w.Topology, w.Nodes, w.Edges, w.PathSets, w.Components, w.Patch, w.Recompile)
	}
	return rows, nil
}
