package core

import (
	"testing"

	"upsim/internal/pathdisc"
)

// TestOptionsZeroValueDefaults pins the documented zero-value semantics of
// Options: the zero value selects the paper's pipeline — recursive DFS,
// induced-subgraph merge, unbounded discovery, linting off, disconnected
// pairs rejected. The Options doc comment refers to this test by name; keep
// the two in sync.
func TestOptionsZeroValueDefaults(t *testing.T) {
	var o Options
	if o.Merge != MergeInduced {
		t.Errorf("Merge zero value = %v, want MergeInduced", o.Merge)
	}
	if o.Lint != LintOff {
		t.Errorf("Lint zero value = %v, want LintOff", o.Lint)
	}
	if o.Paths != (pathdisc.Options{}) {
		t.Errorf("Paths zero value = %+v, want unbounded recursive DFS (K = 0)", o.Paths)
	}
	if o.AllowDisconnected {
		t.Error("AllowDisconnected zero value = true, want false (reject unreachable pairs)")
	}
}
