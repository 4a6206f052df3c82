package depend

import (
	"context"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/testutil"
)

// usiResult generates the USI printing-service UPSIM (Table I mapping).
func usiResult(t *testing.T) *core.Result {
	t.Helper()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := casestudy.PrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(m, casestudy.DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, casestudy.TableIMapping(), "usi-allocs", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// analyzeAllocCeiling bounds one §VII analysis of the USI UPSIM: about 104
// allocations today (the structure and availability table, the compiled
// structure and its factoring program, span and metric bookkeeping), down
// from about 1,060 when error labels, link IDs, RBD/FT trees and scratch
// pools were rebuilt per call.
const analyzeAllocCeiling = 120

// TestAnalyzeAllocCeiling guards the allocation budget of the analysis
// pipeline and pins its in-place RBD and fault-tree stages at zero.
func TestAnalyzeAllocCeiling(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts exact counts")
	}
	res := usiResult(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := AnalyzeContext(ctx, res, ModelExact, 1000, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > analyzeAllocCeiling {
		t.Errorf("AnalyzeContext allocates %.0f objects per run, ceiling %d", allocs, analyzeAllocCeiling)
	}

	st, avail, err := fromResult(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	if a := testing.AllocsPerRun(50, func() { sink += st.seriesParallel(avail) }); a != 0 {
		t.Errorf("in-place RBD allocates %.1f objects per run, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { sink += st.topEventProbability(avail) }); a != 0 {
		t.Errorf("in-place fault tree allocates %.1f objects per run, want 0", a)
	}
	_ = sink
}
