package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

// pathdiscOut is where expPathdisc writes its machine-readable record; empty
// (the test default) skips the file. main sets it from -pathdisc-out.
var pathdiscOut string

// pathdiscWorkload is one row of the BENCH_pathdisc.json record: one
// (topology, endpoint pair) workload measured under the map-based reference
// walker and the compiled CSR kernel. Durations are best-of-reps
// nanoseconds per full enumeration.
type pathdiscWorkload struct {
	Topology       string  `json:"topology"`
	Nodes          int     `json:"nodes"`
	Edges          int     `json:"edges"`
	Branching      float64 `json:"branching"`
	Paths          int     `json:"paths"`
	LegacyNs       int64   `json:"legacyNs"`
	CompiledNs     int64   `json:"compiledNs"`
	Speedup        float64 `json:"speedup"`
	LegacyAllocs   float64 `json:"legacyAllocsPerOp"`
	CompiledAllocs float64 `json:"compiledAllocsPerOp"`
	// RunsPerRep is the calibrated batch size: enough consecutive runs that
	// one timed sample spans at least pathdiscWindow of work.
	RunsPerRep int `json:"runsPerRep"`
}

// mannWhitneyDistinct reports whether two timing sample sets are
// distinguishable at alpha = 0.05 by a two-sided Mann-Whitney U test (normal
// approximation with midranks for ties). Comparing raw best-of figures
// between near-identical code paths manufactures phantom regressions out of
// scheduler noise; a rank test over the whole sample set is how benchstat
// decides whether to print a delta at all.
func mannWhitneyDistinct(a, b []int64) bool {
	type obs struct {
		v     int64
		fromA bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks: tied values share the mean of the ranks they occupy.
	ranks := make([]float64, len(all))
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		i = j
	}
	var rankSumA float64
	for i, o := range all {
		if o.fromA {
			rankSumA += ranks[i]
		}
	}
	n1, n2 := float64(len(a)), float64(len(b))
	u := rankSumA - n1*(n1+1)/2
	mean := n1 * n2 / 2
	sigma := math.Sqrt(n1 * n2 * (n1 + n2 + 1) / 12)
	if sigma == 0 {
		return false
	}
	z := (u - mean) / sigma
	return math.Abs(z) > 1.96
}

// pathdiscBench is the BENCH_pathdisc.json schema.
type pathdiscBench struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	Reps       int                `json:"repsPerVariant"`
	WindowNs   int64              `json:"minSampleWindowNs"`
	Workloads  []pathdiscWorkload `json:"workloads"`
	// DenseMeshSpeedup is the compiled-vs-legacy speedup on the densest mesh
	// workload (the acceptance floor is 3x).
	DenseMeshSpeedup float64 `json:"denseMeshSpeedup"`
}

// expPathdisc is the scalability benchmark of the compiled kernel (Section
// V-D workloads): mesh (the O(n!) dense case), ladder (the low-branching
// "few loops" case) and random connected graphs of growing density, each
// measured interleaved and summarised by the best repetition.
func expPathdisc() error {
	type workload struct {
		name     string
		g        *topology.Graph
		src, dst string
	}
	var ws []workload
	for _, n := range []int{6, 7, 8} {
		g, err := topology.Mesh(n)
		if err != nil {
			return err
		}
		ws = append(ws, workload{fmt.Sprintf("mesh n=%d", n), g, "n0", fmt.Sprintf("n%d", n-1)})
	}
	for _, n := range []int{8, 12, 16} {
		g, err := topology.Ladder(n)
		if err != nil {
			return err
		}
		ws = append(ws, workload{fmt.Sprintf("ladder rungs=%d", n), g, "n0", fmt.Sprintf("n%d", 2*n-1)})
	}
	for _, c := range []struct {
		n int
		p float64
	}{{24, 0.04}, {30, 0.04}} {
		g, err := topology.RandomConnected(c.n, c.p, 7)
		if err != nil {
			return err
		}
		ws = append(ws, workload{fmt.Sprintf("random n=%d loops=%.2f", c.n, c.p), g, "n0", fmt.Sprintf("n%d", c.n-1)})
	}

	// pathdiscWindow is the minimum span of one timed sample. Timing a single
	// 10-microsecond enumeration is unsound — one GC pause or scheduler blip
	// inside the window swamps the signal — so small workloads are batched
	// until a sample covers at least this much real work, the same strategy
	// testing.B uses to pick b.N.
	const pathdiscWindow = 20 * time.Millisecond
	b := pathdiscBench{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Reps:             9,
		WindowNs:         pathdiscWindow.Nanoseconds(),
		DenseMeshSpeedup: math.Inf(1),
	}
	fmt.Printf("  GOMAXPROCS=%d, best of %d interleaved reps, >=%s/sample\n",
		b.GOMAXPROCS, b.Reps, pathdiscWindow)
	fmt.Printf("  %-22s %6s %6s %9s %11s %11s %8s %9s %9s\n",
		"topology", "nodes", "edges", "paths", "legacy", "compiled", "speedup", "allocs", "allocs'")

	// One sample = collect the heap, one untimed warm-up run (runtime.GC
	// purges the kernel's sync.Pool, so the first run after it re-allocates
	// scratch), then `batch` consecutive timed runs averaged into a per-run
	// figure. Mid-window collections are driven by allocation rate, which is
	// identical across variants of the same workload, so a >=2ms window
	// amortises them fairly. Single-shot timing instead let one GC pause land
	// inside the same variant's slot on every repetition, a bias best-of
	// cannot remove (observed as a stable phantom 0.74x between two runs of
	// the *same* sequential code path).
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
	for _, x := range ws {
		c := pathdisc.Compile(x.g)
		opts := pathdisc.Options{}
		calStart := time.Now()
		paths, _, err := c.AllPaths(x.src, x.dst, opts)
		if err != nil {
			return err
		}
		// Calibrate the batch from this first (coldest, so pessimistic) run.
		batch := int(pathdiscWindow / max(time.Since(calStart), time.Microsecond))
		batch = min(max(batch, 1), 512)
		w := pathdiscWorkload{
			Topology:   x.name,
			Nodes:      x.g.NumNodes(),
			Edges:      x.g.NumEdges(),
			Branching:  math.Round(c.Branching()*100) / 100,
			Paths:      len(paths),
			LegacyNs:   math.MaxInt64,
			CompiledNs: math.MaxInt64,
			RunsPerRep: batch,
		}
		// Interleave the two kernels so drift hits them equally; keep the
		// best repetition of each (see cache.go for the rationale).
		for i := 0; i < b.Reps; i++ {
			d, err := timeIt(batch, func() error { _, _, err := pathdisc.AllPaths(x.g, x.src, x.dst, opts); return err })
			if err != nil {
				return err
			}
			w.LegacyNs = min(w.LegacyNs, d)
			d, err = timeIt(batch, func() error { _, _, err := c.AllPaths(x.src, x.dst, opts); return err })
			if err != nil {
				return err
			}
			w.CompiledNs = min(w.CompiledNs, d)
		}
		w.LegacyAllocs = testing.AllocsPerRun(3, func() {
			_, _, _ = pathdisc.AllPaths(x.g, x.src, x.dst, opts)
		})
		w.CompiledAllocs = testing.AllocsPerRun(3, func() {
			_, _, _ = c.AllPaths(x.src, x.dst, opts)
		})
		// Speedups below the noise floor of a best-of comparison (<1%) round
		// away rather than masquerading as signal.
		w.Speedup = math.Round(float64(w.LegacyNs)/float64(w.CompiledNs)*100) / 100
		b.Workloads = append(b.Workloads, w)
		fmt.Printf("  %-22s %6d %6d %9d %11s %11s %7.2fx %9.0f %9.0f\n",
			w.Topology, w.Nodes, w.Edges, w.Paths,
			time.Duration(w.LegacyNs).Round(time.Microsecond),
			time.Duration(w.CompiledNs).Round(time.Microsecond),
			w.Speedup, w.LegacyAllocs, w.CompiledAllocs)
	}
	// DenseMeshSpeedup must reflect the mesh rows, not whatever ran last.
	for _, w := range b.Workloads {
		if w.Topology == "mesh n=8" {
			b.DenseMeshSpeedup = w.Speedup
		}
	}
	fmt.Printf("  dense mesh speedup: %.2fx (floor 3x)\n", b.DenseMeshSpeedup)

	if pathdiscOut != "" {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(pathdiscOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", pathdiscOut)
	}
	return nil
}
