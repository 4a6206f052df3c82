package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"upsim/internal/depend"
	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

// whatifOut is where expWhatIf writes its machine-readable record; empty
// skips the file. main sets it from -whatif-out. The experiment shares the
// -smoke switch (dependSmoke) with expDepend.
var whatifOut string

// whatifFamily is one measured update path on one workload: patch (the
// in-place delta application of DESIGN.md §13) vs recompile (rebuilding the
// same compiled kernel from scratch), best-of-reps nanoseconds per delta.
// Parity follows the expPathdisc convention: statistically
// indistinguishable sample sets (two-sided Mann-Whitney U, alpha 0.05)
// report a speedup of exactly 1.
type whatifFamily struct {
	PatchNs     int64   `json:"patchNs"`
	RecompileNs int64   `json:"recompileNs"`
	Speedup     float64 `json:"speedup"`
	Parity      bool    `json:"parity,omitempty"`
	RunsPerRep  int     `json:"runsPerRep"`
}

// whatifWorkload is one row of the BENCH_whatif.json record: one (topology,
// service) pair measured under both update paths of the compiled
// dependability kernel, the engine's whole per-delta compiled work.
type whatifWorkload struct {
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	// PathSets is the number of minimal path sets of the registered service
	// (across all its atomic services), Components the interned universe
	// size (devices plus link components).
	PathSets   int `json:"servicePathSets"`
	Components int `json:"components"`
	// Kernel measures the depend layer: PatchRemoveComponent vs a full
	// Compile of the equivalently filtered structure, the figure the >=3x
	// acceptance floor ranges over.
	Kernel whatifFamily `json:"kernel"`
}

// whatifBench is the BENCH_whatif.json schema. PatchFloorSpeedup is the
// worst kernel patch-vs-recompile ratio across the fat-tree and mesh
// workloads (the acceptance floor is 3x); the ladder row is informational.
// Regression flags any Mann-Whitney-confirmed slowdown on any workload.
type whatifBench struct {
	GOMAXPROCS        int              `json:"gomaxprocs"`
	Reps              int              `json:"repsPerVariant"`
	WindowNs          int64            `json:"minSampleWindowNs"`
	Smoke             bool             `json:"smoke,omitempty"`
	Workloads         []whatifWorkload `json:"workloads"`
	PatchFloorSpeedup float64          `json:"patchFloorSpeedup"`
	Regression        bool             `json:"regression"`
}

// whatifStructure enumerates the service's paths on the compiled graph and
// builds the depend structure the way the live engine sees it: every path
// becomes one minimal path set holding its device names and link
// components. Several endpoint pairs act as the atomic services of one
// composite, so the kernel carries a realistic multi-stage set population.
func whatifStructure(csr *pathdisc.Compiled, pairs [][2]string, opts pathdisc.Options) (*depend.ServiceStructure, map[string]float64, []pathdisc.Path, error) {
	st := &depend.ServiceStructure{}
	avail := map[string]float64{}
	var first []pathdisc.Path
	for i, pr := range pairs {
		paths, _, err := csr.AllPaths(pr[0], pr[1], opts)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(paths) == 0 {
			return nil, nil, nil, fmt.Errorf("no paths %s -> %s", pr[0], pr[1])
		}
		if i == 0 {
			first = paths
		}
		a := depend.AtomicStructure{Name: fmt.Sprintf("stage%d", i)}
		for _, p := range paths {
			ps := make(depend.PathSet, 0, 2*len(p.Nodes)-1)
			for j, n := range p.Nodes {
				ps = append(ps, n)
				avail[n] = 0.995
				if j > 0 {
					l := depend.LinkComponentID(p.Nodes[j-1], n, p.Edges[j-1])
					ps = append(ps, l)
					avail[l] = 0.9995
				}
			}
			a.PathSets = append(a.PathSets, ps)
		}
		st.AtomicServices = append(st.AtomicServices, a)
	}
	return st, avail, first, nil
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

// expWhatIf benchmarks the incremental update path of the live-topology
// what-if engine against cold recompilation: after one topology delta (one
// component conditioned permanently failed), how long until the compiled
// dependability kernel is current again? The recompile baseline is
// deliberately minimal — it re-runs only depend.Compile on already-known
// inputs, not path re-enumeration or UPSIM regeneration — so the reported
// speedups are a conservative floor on what the engine actually saves.
func expWhatIf() error {
	type workload struct {
		name    string
		floored bool // participates in the >=3x acceptance floor
		build   func() (*topology.Graph, error)
		pairs   [][2]string
		opts    pathdisc.Options
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
			name: "fat-tree k=4", floored: true,
			build: func() (*topology.Graph, error) { return topology.FatTree(4) },
			pairs: [][2]string{
				{"h0-0-0", "h3-1-1"}, {"h1-0-0", "h2-1-0"},
				{"h0-1-0", "h1-1-1"}, {"h2-0-1", "h3-0-0"},
			},
			opts: pathdisc.Options{MaxDepth: 6},
		},
		{
			// The O(n!) dense case, capped by depth like the engine does.
			name: "mesh n=8", floored: true,
			build: func() (*topology.Graph, error) { return topology.Mesh(8) },
			pairs: [][2]string{{"n0", "n7"}},
			opts:  pathdisc.Options{MaxDepth: 5},
		},
	}
	if !dependSmoke {
		ws = append(ws, workload{
			name: "fat-tree k=6", floored: true,
			build: func() (*topology.Graph, error) { return topology.FatTree(6) },
			pairs: [][2]string{
				{"h0-0-0", "h5-2-2"}, {"h1-1-0", "h4-0-1"},
				{"h2-2-1", "h3-1-2"}, {"h0-2-0", "h2-0-2"},
			},
			opts: pathdisc.Options{MaxDepth: 6},
		})
	}

	window := 20 * time.Millisecond
	b := whatifBench{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Reps:              9,
		Smoke:             dependSmoke,
		PatchFloorSpeedup: math.Inf(1),
	}
	if dependSmoke {
		b.Reps, window = 3, 2*time.Millisecond
	}
	b.WindowNs = window.Nanoseconds()
	fmt.Printf("  GOMAXPROCS=%d, best of %d interleaved reps, >=%s/sample\n",
		b.GOMAXPROCS, b.Reps, window)
	fmt.Printf("  %-14s %6s %6s %6s %6s %9s\n",
		"topology", "nodes", "edges", "sets", "comps", "kernel x")

	// The expDepend/expPathdisc methodology: one sample = GC + untimed
	// warm-up + a calibrated batch of timed runs; variants interleave with
	// alternating order; the best repetition represents each variant; rank
	// testing decides whether a delta is signal at all.
	timeIt := func(batch int, f func() error) (int64, error) {
		runtime.GC()
		if err := f(); err != nil {
			return 0, err
		}
		start := time.Now()
		for j := 0; j < batch; j++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Nanoseconds() / int64(batch), nil
	}
	benchPair := func(patch, recompile func() error) (whatifFamily, error) {
		fam := whatifFamily{PatchNs: math.MaxInt64, RecompileNs: math.MaxInt64}
		calStart := time.Now()
		if err := recompile(); err != nil {
			return fam, err
		}
		batch := int(window / max(time.Since(calStart), time.Microsecond))
		fam.RunsPerRep = min(max(batch, 1), 512)
		var ps, rs []int64
		for i := 0; i < b.Reps; i++ {
			first, second := patch, recompile
			if i%2 == 1 {
				first, second = recompile, patch
			}
			d1, err := timeIt(fam.RunsPerRep, first)
			if err != nil {
				return fam, err
			}
			d2, err := timeIt(fam.RunsPerRep, second)
			if err != nil {
				return fam, err
			}
			dp, dr := d1, d2
			if i%2 == 1 {
				dp, dr = d2, d1
			}
			fam.PatchNs = min(fam.PatchNs, dp)
			fam.RecompileNs = min(fam.RecompileNs, dr)
			ps = append(ps, dp)
			rs = append(rs, dr)
		}
		if mannWhitneyDistinct(ps, rs) {
			fam.Speedup = math.Round(float64(fam.RecompileNs)/float64(fam.PatchNs)*100) / 100
		} else {
			fam.Parity = true
			fam.Speedup = 1
		}
		return fam, nil
	}

	for _, x := range ws {
		g, err := x.build()
		if err != nil {
			return err
		}
		st, _, firstPaths, err := whatifStructure(pathdisc.Compile(g), x.pairs, x.opts)
		if err != nil {
			return err
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
			return fmt.Errorf("%s: %w", x.name, err)
		}
		if _, err := cs.PatchRemoveComponent(victim); err != nil {
			return err
		}
		filtered := whatifFilter(st, victim)

		w := whatifWorkload{
			Topology:   x.name,
			Nodes:      g.NumNodes(),
			Edges:      g.NumEdges(),
			PathSets:   sets,
			Components: cs.NumComponents(),
		}

		w.Kernel, err = benchPair(
			func() error {
				_, err := cs.PatchRemoveComponent(victim)
				return err
			},
			func() error {
				depend.Compile(filtered)
				return nil
			},
		)
		if err != nil {
			return err
		}

		if x.floored {
			b.PatchFloorSpeedup = min(b.PatchFloorSpeedup, w.Kernel.Speedup)
		}
		b.Regression = b.Regression || (!w.Kernel.Parity && w.Kernel.Speedup < 1)
		b.Workloads = append(b.Workloads, w)
		fmt.Printf("  %-14s %6d %6d %6d %6d %8.2fx\n",
			w.Topology, w.Nodes, w.Edges, w.PathSets, w.Components, w.Kernel.Speedup)
	}

	if math.IsInf(b.PatchFloorSpeedup, 0) {
		b.PatchFloorSpeedup = 0
	}
	fmt.Printf("  patch floor (fat-tree/mesh rows, kernel): %.2fx (acceptance floor 3x)\n",
		b.PatchFloorSpeedup)
	fmt.Printf("  Mann-Whitney-confirmed regression on any workload: %t\n", b.Regression)
	fmt.Println("  (the recompile baseline excludes path re-enumeration and UPSIM")
	fmt.Println("   regeneration, so live speedups are strictly larger than reported)")

	if whatifOut != "" {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(whatifOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", whatifOut)
	}
	return nil
}
