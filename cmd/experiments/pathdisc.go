package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

// pathdiscOut is where expPathdisc writes its machine-readable record; empty
// (the test default) skips the file. main sets it from -pathdisc-out.
var pathdiscOut string

// timing summarises one workload's timed samples in nanoseconds per run:
// the best repetition, and the median and interquartile range over all of
// them, so that a later record can tell drift from noise. RunsPerRep is the
// calibrated batch size: enough consecutive runs that one timed sample
// spans the harness's minimum window.
type timing struct {
	BestNs     int64 `json:"bestNs"`
	MedianNs   int64 `json:"medianNs"`
	IQRNs      int64 `json:"iqrNs"`
	RunsPerRep int   `json:"runsPerRep"`
}

// summarise returns the timing of the samples, with nearest-rank quartiles.
func summarise(samples []int64, runsPerRep int) timing {
	s := slices.Clone(samples)
	slices.Sort(s)
	q := func(p float64) int64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return timing{BestNs: s[0], MedianNs: q(0.5), IQRNs: q(0.75) - q(0.25), RunsPerRep: runsPerRep}
}

// String renders the median and interquartile range, e.g. "12µs ±0.4µs".
func (t timing) String() string {
	return fmt.Sprintf("%v ±%v", roundNs(t.MedianNs), roundNs(t.IQRNs))
}

// roundNs renders a nanosecond figure at three significant digits.
func roundNs(ns int64) time.Duration {
	d := time.Duration(ns)
	for r := time.Duration(1); ; r *= 10 {
		if d < 1000*r {
			return d.Round(r)
		}
	}
}

// timeBatch times one sample: collect the heap, one untimed warm-up run
// (runtime.GC purges the kernels' sync.Pools, so the first run after it
// re-allocates scratch), then batch consecutive timed runs averaged into a
// per-run figure. Timing a single microsecond run is unsound — one GC pause
// or scheduler blip inside the window swamps the signal — so small
// workloads are batched until a sample covers enough real work, the
// strategy testing.B uses to pick b.N.
func timeBatch(batch int, f func() error) (int64, error) {
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

// pathdiscWorkload is one row of the BENCH_pathdisc.json record: one
// (topology, endpoint pair) workload measured under the compiled CSR
// kernel, one full enumeration per run.
type pathdiscWorkload struct {
	Topology  string  `json:"topology"`
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
	Branching float64 `json:"branching"`
	Paths     int     `json:"paths"`
	Compiled  timing  `json:"compiled"`
	Allocs    float64 `json:"allocsPerOp"`
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
	Host       string             `json:"host"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Reps       int                `json:"repsPerWorkload"`
	WindowNs   int64              `json:"minSampleWindowNs"`
	Workloads  []pathdiscWorkload `json:"workloads"`
}

// expPathdisc times the compiled kernel on the Section V-D workloads: mesh
// (the O(n!) dense case), ladder (the low-branching "few loops" case) and
// random connected graphs of growing density, each summarised by its best
// repetition and by the median and interquartile range of all of them.
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

	// pathdiscWindow is the minimum span of one timed sample (see timeBatch).
	const pathdiscWindow = 20 * time.Millisecond
	b := pathdiscBench{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       9,
		WindowNs:   pathdiscWindow.Nanoseconds(),
	}
	fmt.Printf("  %s, GOMAXPROCS=%d, %d reps, >=%s/sample\n",
		b.Host, b.GOMAXPROCS, b.Reps, pathdiscWindow)
	fmt.Printf("  %-22s %6s %6s %9s %11s %20s %7s\n",
		"topology", "nodes", "edges", "paths", "best", "median ±IQR", "allocs")
	for _, x := range ws {
		c := pathdisc.Compile(x.g)
		opts := pathdisc.Options{}
		enumerate := func() error { _, _, err := c.AllPaths(x.src, x.dst, opts); return err }
		calStart := time.Now()
		paths, _, err := c.AllPaths(x.src, x.dst, opts)
		if err != nil {
			return err
		}
		// Calibrate the batch from this first (coldest, so pessimistic) run.
		batch := int(pathdiscWindow / max(time.Since(calStart), time.Microsecond))
		batch = min(max(batch, 1), 512)
		samples := make([]int64, 0, b.Reps)
		for i := 0; i < b.Reps; i++ {
			d, err := timeBatch(batch, enumerate)
			if err != nil {
				return err
			}
			samples = append(samples, d)
		}
		w := pathdiscWorkload{
			Topology:  x.name,
			Nodes:     x.g.NumNodes(),
			Edges:     x.g.NumEdges(),
			Branching: math.Round(c.Branching()*100) / 100,
			Paths:     len(paths),
			Compiled:  summarise(samples, batch),
			Allocs:    testing.AllocsPerRun(3, func() { _ = enumerate() }),
		}
		b.Workloads = append(b.Workloads, w)
		fmt.Printf("  %-22s %6d %6d %9d %11v %20v %7.0f\n",
			w.Topology, w.Nodes, w.Edges, w.Paths, roundNs(w.Compiled.BestNs), w.Compiled, w.Allocs)
	}

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
