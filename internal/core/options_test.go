package core

import (
	"runtime"
	"testing"

	"upsim/internal/pathdisc"
)

// TestOptionsZeroValueDefaults pins the documented zero-value semantics of
// Options: the zero value selects the paper's pipeline — recursive DFS,
// induced-subgraph merge, unbounded discovery, automatic pool sizing,
// linting off, disconnected pairs rejected. The Options doc comment refers
// to this test by name; keep the two in sync.
func TestOptionsZeroValueDefaults(t *testing.T) {
	var o Options
	if o.Algorithm != AlgoRecursive {
		t.Errorf("Algorithm zero value = %v, want AlgoRecursive", o.Algorithm)
	}
	if o.Algorithm.String() != "recursive-dfs" {
		t.Errorf("default algorithm renders %q", o.Algorithm.String())
	}
	if o.Merge != MergeInduced {
		t.Errorf("Merge zero value = %v, want MergeInduced", o.Merge)
	}
	if o.Lint != LintOff {
		t.Errorf("Lint zero value = %v, want LintOff", o.Lint)
	}
	if o.Paths != (pathdisc.Options{}) {
		t.Errorf("Paths zero value = %+v, want unbounded discovery", o.Paths)
	}
	if o.Paths.MaxDepth != 0 || o.Paths.MaxPaths != 0 || o.Paths.CollapseParallel {
		t.Errorf("Paths bounds = %+v, want 0/0/false (unbounded, parallel links kept)", o.Paths)
	}
	if o.DiscoveryWorkers != 0 {
		t.Errorf("DiscoveryWorkers zero value = %d, want 0 (automatic sizing)", o.DiscoveryWorkers)
	}
	if o.AllowDisconnected {
		t.Error("AllowDisconnected zero value = true, want false (reject unreachable pairs)")
	}
}

func TestDiscoveryWorkersResolution(t *testing.T) {
	gomax := runtime.GOMAXPROCS(0)
	cases := []struct {
		name string
		opt  int
		n    int
		want int
	}{
		{"auto caps at GOMAXPROCS", 0, gomax + 5, gomax},
		{"auto caps at task count", 0, 1, 1},
		{"sequential", 1, 8, 1},
		{"explicit within bounds", 2, 8, 2},
		{"explicit caps at task count", 16, 3, 3},
		{"negative means auto", -4, 1, 1},
		{"zero tasks still one worker", 0, 0, 1},
	}
	for _, tc := range cases {
		if got := (Options{DiscoveryWorkers: tc.opt}).discoveryWorkers(tc.n); got != tc.want {
			t.Errorf("%s: discoveryWorkers(%d) with opt %d = %d, want %d", tc.name, tc.n, tc.opt, got, tc.want)
		}
	}
}
