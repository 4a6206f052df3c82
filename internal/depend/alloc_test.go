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

// analyzeAllocCeiling bounds one untraced §VII analysis of the USI UPSIM:
// 32 allocations on go1.24 (the structure and availability table, the
// compiled structure and its factoring program, metric bookkeeping), down
// from 45 while compile made one bitset per path set and one set list per
// atomic service, 95 while every stage opened an orphan root span and each
// path set was its own slice, and about 1,060 when error labels, link IDs,
// RBD/FT trees and scratch pools were rebuilt per call.
const analyzeAllocCeiling = 35

// fromResultAllocCeiling bounds the structure extraction alone: 19 on
// go1.24, of which 10 are the link component IDs; the path sets, the set
// lists and the availability table take one allocation each per stage
// (43 with one slice per path set and grown lists).
const fromResultAllocCeiling = 21

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

	if a := testing.AllocsPerRun(50, func() {
		if _, _, err := fromResult(res, ModelExact); err != nil {
			t.Fatal(err)
		}
	}); a > fromResultAllocCeiling {
		t.Errorf("fromResult allocates %.0f objects per run, ceiling %d", a, fromResultAllocCeiling)
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
