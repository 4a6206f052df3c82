package depend

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func pathSetStrings(sets []PathSet) []string {
	out := make([]string, 0, len(sets))
	for _, s := range sets {
		out = append(out, strings.Join(s, ","))
	}
	return out
}

func TestServicePathSets(t *testing.T) {
	st, _ := sharedStructure() // one atomic: {x,a}, {x,b}
	sets, err := st.ServicePathSets(0)
	if err != nil {
		t.Fatal(err)
	}
	got := pathSetStrings(sets)
	if len(got) != 2 || got[0] != "a,x" || got[1] != "b,x" {
		t.Errorf("ServicePathSets = %v", got)
	}
	// Two atomics sharing a single path collapse to one service path set.
	st2 := &ServiceStructure{AtomicServices: []AtomicStructure{
		{Name: "s1", PathSets: []PathSet{{"a", "b"}}},
		{Name: "s2", PathSets: []PathSet{{"a", "b"}}},
	}}
	sets2, err := st2.ServicePathSets(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets2) != 1 || strings.Join(sets2[0], ",") != "a,b" {
		t.Errorf("collapsed service path sets = %v", pathSetStrings(sets2))
	}
	// Expansion limit enforced.
	if _, err := st.ServicePathSets(1); err == nil {
		t.Error("limit 1 should overflow for two path sets")
	}
}

func TestMinimalCutSets(t *testing.T) {
	// Diamond: paths {a,b}, {c,d} (disjoint). Cuts: one from each path:
	// {a,c},{a,d},{b,c},{b,d}.
	st, _ := simpleStructure()
	cuts, err := st.MinimalCutSets(0)
	if err != nil {
		t.Fatal(err)
	}
	got := pathSetStrings(cuts)
	want := []string{"a,c", "a,d", "b,c", "b,d"}
	if len(got) != len(want) {
		t.Fatalf("cuts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cut[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	// Shared component: paths {x,a},{x,b} → cuts {x} and {a,b}.
	shared, _ := sharedStructure()
	cuts2, err := shared.MinimalCutSets(0)
	if err != nil {
		t.Fatal(err)
	}
	got2 := pathSetStrings(cuts2)
	if len(got2) != 2 || got2[0] != "x" || got2[1] != "a,b" {
		t.Errorf("shared cuts = %v", got2)
	}
}

func TestMinimalize(t *testing.T) {
	in := []PathSet{{"a", "b"}, {"a"}, {"a", "b", "c"}, {"b", "c"}, {"a"}}
	out := Minimalize(in)
	got := pathSetStrings(out)
	if len(got) != 2 || got[0] != "a" || got[1] != "b,c" {
		t.Errorf("Minimalize = %v", got)
	}
	if len(Minimalize(nil)) != 0 {
		t.Error("Minimalize(nil) should be empty")
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		sub, super PathSet
		want       bool
	}{
		{PathSet{"a"}, PathSet{"a", "b"}, true},
		{PathSet{"a", "b"}, PathSet{"a", "b"}, true},
		{PathSet{"a", "c"}, PathSet{"a", "b"}, false},
		{PathSet{}, PathSet{"a"}, true},
		{PathSet{"a", "b"}, PathSet{"a"}, false},
	}
	for _, c := range cases {
		if got := isSubset(c.sub, c.super); got != c.want {
			t.Errorf("isSubset(%v, %v) = %v", c.sub, c.super, got)
		}
	}
}

func TestEsaryProschanBrackets(t *testing.T) {
	for name, build := range map[string]func() (*ServiceStructure, map[string]float64){
		"simple": simpleStructure,
		"shared": sharedStructure,
	} {
		st, avail := build()
		exact, err := oracleExact(st, avail)
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.EsaryProschan(avail, 0)
		if err != nil {
			t.Fatal(err)
		}
		if b.Lower > exact+1e-12 || exact > b.Upper+1e-12 {
			t.Errorf("%s: bounds [%v, %v] do not bracket exact %v", name, b.Lower, b.Upper, exact)
		}
		if b.Lower < 0 || b.Upper > 1 {
			t.Errorf("%s: bounds out of range: %+v", name, b)
		}
	}
}

// Property: Esary–Proschan brackets the exact availability for random
// two-atomic structures with a shared component.
func TestEsaryProschanProperty(t *testing.T) {
	norm := func(x uint16) float64 { return float64(x%1001) / 1000 }
	f := func(pa, pb, pc, px uint16) bool {
		st := &ServiceStructure{AtomicServices: []AtomicStructure{
			{Name: "s1", PathSets: []PathSet{{"x", "a"}, {"x", "b"}}},
			{Name: "s2", PathSets: []PathSet{{"c"}, {"a"}}},
		}}
		avail := map[string]float64{"a": norm(pa), "b": norm(pb), "c": norm(pc), "x": norm(px)}
		exact, err := oracleExact(st, avail)
		if err != nil {
			return false
		}
		b, err := st.EsaryProschan(avail, 0)
		if err != nil {
			return false
		}
		return b.Lower <= exact+1e-9 && exact <= b.Upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWhatIf(t *testing.T) {
	st, avail := sharedStructure() // A = Ax * (1-(1-Aa)(1-Ab))
	// Forcing the single point of failure down kills the service.
	down, err := st.WhatIf(avail, map[string]bool{"x": false})
	if err != nil {
		t.Fatal(err)
	}
	if down != 0 {
		t.Errorf("WhatIf(x down) = %v, want 0", down)
	}
	// Forcing it up removes its contribution.
	up, err := st.WhatIf(avail, map[string]bool{"x": true})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.8)*(1-0.8)
	if math.Abs(up-want) > 1e-12 {
		t.Errorf("WhatIf(x up) = %v, want %v", up, want)
	}
	// Unknown component rejected.
	if _, err := st.WhatIf(avail, map[string]bool{"ghost": true}); err == nil {
		t.Error("unknown forced component should fail")
	}
	// No forcing = exact.
	same, err := st.WhatIf(avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := st.Exact(avail)
	if same != exact {
		t.Errorf("WhatIf(nil) = %v, exact = %v", same, exact)
	}
}

func TestFussellVesely(t *testing.T) {
	st, avail := sharedStructure()
	// x participates in every outage (single point of failure): removing
	// its failures eliminates most of the unavailability.
	_, fv := importances(t, st, avail)
	fvX, fvA := fv["x"], fv["a"]
	if fvX <= fvA {
		t.Errorf("FV(x)=%v must exceed FV(a)=%v", fvX, fvA)
	}
	if fvX < 0 || fvX > 1+1e-12 {
		t.Errorf("FV(x) = %v out of range", fvX)
	}
	// Q_sys = 1-0.864 = 0.136; with x perfect Q = 1-0.96 = 0.04;
	// FV(x) = (0.136-0.04)/0.136.
	want := (0.136 - 0.04) / 0.136
	if math.Abs(fvX-want) > 1e-9 {
		t.Errorf("FV(x) = %v, want %v", fvX, want)
	}
	// Perfect system: FV = 0 by convention.
	perfect := map[string]float64{"x": 1, "a": 1, "b": 1}
	if _, fv := importances(t, st, perfect); fv["x"] != 0 {
		t.Errorf("FV on perfect system = %v", fv["x"])
	}
}

func TestCutSetsValidate(t *testing.T) {
	bad := &ServiceStructure{}
	if _, err := bad.ServicePathSets(0); err == nil {
		t.Error("invalid structure should fail")
	}
	if _, err := bad.MinimalCutSets(0); err == nil {
		t.Error("invalid structure should fail")
	}
}

// Property: every minimal cut set hits every service path set, and no cut
// set is a superset of another.
func TestCutSetHittingProperty(t *testing.T) {
	st, _ := simpleStructure()
	cuts, err := st.MinimalCutSets(0)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := st.ServicePathSets(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range cuts {
		km := map[string]bool{}
		for _, c := range k {
			km[c] = true
		}
		for _, p := range paths {
			if !hits(km, p) {
				t.Errorf("cut %v misses path %v", k, p)
			}
		}
	}
	for i := range cuts {
		for j := range cuts {
			if i != j && isSubset(cuts[i], cuts[j]) {
				t.Errorf("cut %v subsumes cut %v", cuts[i], cuts[j])
			}
		}
	}
}

// The inclusion-exclusion oracle and the Shannon-factoring engine must agree
// on every structure, including the full case-study one.
func TestExactInclusionExclusionCrossCheck(t *testing.T) {
	for name, build := range map[string]func() (*ServiceStructure, map[string]float64){
		"simple": simpleStructure,
		"shared": sharedStructure,
	} {
		st, avail := build()
		factored, err := oracleExact(st, avail)
		if err != nil {
			t.Fatal(err)
		}
		ie, err := st.ExactInclusionExclusion(avail, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(factored-ie) > 1e-12 {
			t.Errorf("%s: factoring %v vs inclusion-exclusion %v", name, factored, ie)
		}
	}
	// Full pipeline structure.
	res := analysisFixture(t, 1e6)
	st, _, avail, err := FromResult(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	factored, err := oracleExact(st, avail)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := st.ExactInclusionExclusion(avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(factored-ie) > 1e-12 {
		t.Errorf("pipeline: factoring %v vs inclusion-exclusion %v", factored, ie)
	}
}

// Property: both exact engines agree on random small structures.
func TestExactEnginesAgreeProperty(t *testing.T) {
	norm := func(x uint16) float64 { return float64(x%1001) / 1000 }
	f := func(pa, pb, pc, px, py uint16) bool {
		st := &ServiceStructure{AtomicServices: []AtomicStructure{
			{Name: "s1", PathSets: []PathSet{{"x", "a"}, {"y", "b"}}},
			{Name: "s2", PathSets: []PathSet{{"x", "c"}, {"y", "a"}}},
		}}
		avail := map[string]float64{
			"a": norm(pa), "b": norm(pb), "c": norm(pc), "x": norm(px), "y": norm(py),
		}
		v1, err1 := oracleExact(st, avail)
		v2, err2 := st.ExactInclusionExclusion(avail, 0)
		return err1 == nil && err2 == nil && math.Abs(v1-v2) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExactInclusionExclusionLimit(t *testing.T) {
	// A structure expanding beyond the subset limit is rejected loudly.
	st := &ServiceStructure{AtomicServices: []AtomicStructure{
		{Name: "s", PathSets: []PathSet{{"a"}, {"b"}, {"c"}, {"d"}}},
	}}
	avail := map[string]float64{"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
	if _, err := st.ExactInclusionExclusion(avail, 3); err == nil {
		t.Error("limit should reject 4 path sets")
	}
	v, err := st.ExactInclusionExclusion(avail, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(0.5, 4)
	if math.Abs(v-want) > 1e-12 {
		t.Errorf("IE = %v, want %v", v, want)
	}
}
