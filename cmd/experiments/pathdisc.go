package main

import (
	"fmt"
	"math"
	"testing"

	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

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

// expPathdisc times the compiled kernel on the Section V-D workloads: mesh
// (the O(n!) dense case), ladder (the low-branching "few loops" case) and
// random connected graphs of growing density, each summarised by its best
// repetition and by the median and interquartile range of all of them.
func expPathdisc() (any, error) {
	type workload struct {
		name     string
		g        *topology.Graph
		src, dst string
	}
	var ws []workload
	for _, n := range []int{6, 7, 8} {
		g, err := topology.Mesh(n)
		if err != nil {
			return nil, err
		}
		ws = append(ws, workload{fmt.Sprintf("mesh n=%d", n), g, "n0", fmt.Sprintf("n%d", n-1)})
	}
	for _, n := range []int{8, 12, 16} {
		g, err := topology.Ladder(n)
		if err != nil {
			return nil, err
		}
		ws = append(ws, workload{fmt.Sprintf("ladder rungs=%d", n), g, "n0", fmt.Sprintf("n%d", 2*n-1)})
	}
	for _, c := range []struct {
		n int
		p float64
	}{{24, 0.04}, {30, 0.04}} {
		g, err := topology.RandomConnected(c.n, c.p, 7)
		if err != nil {
			return nil, err
		}
		ws = append(ws, workload{fmt.Sprintf("random n=%d loops=%.2f", c.n, c.p), g, "n0", fmt.Sprintf("n%d", c.n-1)})
	}

	fmt.Printf("  %-22s %6s %6s %9s %11s %20s %7s\n",
		"topology", "nodes", "edges", "paths", "best", "median ±IQR", "allocs")
	var rows []pathdiscWorkload
	for _, x := range ws {
		c := pathdisc.Compile(x.g)
		opts := pathdisc.Options{}
		paths, _, err := c.AllPaths(x.src, x.dst, opts)
		if err != nil {
			return nil, err
		}
		enumerate := func() error { _, _, err := c.AllPaths(x.src, x.dst, opts); return err }
		w := pathdiscWorkload{
			Topology:  x.name,
			Nodes:     x.g.NumNodes(),
			Edges:     x.g.NumEdges(),
			Branching: math.Round(c.Branching()*100) / 100,
			Paths:     len(paths),
		}
		if w.Compiled, err = measure(enumerate); err != nil {
			return nil, err
		}
		w.Allocs = testing.AllocsPerRun(3, func() { _ = enumerate() })
		rows = append(rows, w)
		fmt.Printf("  %-22s %6d %6d %9d %11v %20v %7.0f\n",
			w.Topology, w.Nodes, w.Edges, w.Paths, roundNs(w.Compiled.BestNs), w.Compiled, w.Allocs)
	}
	return rows, nil
}
