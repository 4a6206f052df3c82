package depend

import (
	"math"
	"testing"
	"testing/quick"
)

// simpleStructure: one atomic service with two disjoint paths {a,b} and
// {c,d} — series-parallel, so Exact == RBDApprox.
func simpleStructure() (*ServiceStructure, map[string]float64) {
	st := &ServiceStructure{AtomicServices: []AtomicStructure{
		{Name: "s", PathSets: []PathSet{{"a", "b"}, {"c", "d"}}},
	}}
	avail := map[string]float64{"a": 0.9, "b": 0.95, "c": 0.9, "d": 0.95}
	return st, avail
}

// sharedStructure: two paths sharing component x — the bridge case where
// the naive RBD overestimates.
func sharedStructure() (*ServiceStructure, map[string]float64) {
	st := &ServiceStructure{AtomicServices: []AtomicStructure{
		{Name: "s", PathSets: []PathSet{{"x", "a"}, {"x", "b"}}},
	}}
	avail := map[string]float64{"x": 0.9, "a": 0.8, "b": 0.8}
	return st, avail
}

func TestExactSeriesParallel(t *testing.T) {
	st, avail := simpleStructure()
	exact, err := st.Exact(avail)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.9*0.95)*(1-0.9*0.95)
	if math.Abs(exact-want) > 1e-12 {
		t.Errorf("exact = %v, want %v", exact, want)
	}
	rbd, err := st.RBDApprox(avail)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-rbd) > 1e-12 {
		t.Errorf("disjoint paths: exact (%v) must equal RBD (%v)", exact, rbd)
	}
}

func TestExactSharedComponent(t *testing.T) {
	st, avail := sharedStructure()
	// Exact: A = A_x * (1 - (1-A_a)(1-A_b)) = 0.9 * (1 - 0.04) = 0.864.
	exact, err := st.Exact(avail)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-0.864) > 1e-12 {
		t.Errorf("exact = %v, want 0.864", exact)
	}
	// Naive RBD treats the two x's as independent:
	// 1 - (1-0.72)^2 = 0.9216 > exact.
	rbd, _ := st.RBDApprox(avail)
	if math.Abs(rbd-0.9216) > 1e-12 {
		t.Errorf("rbd = %v, want 0.9216", rbd)
	}
	if rbd <= exact {
		t.Error("naive RBD must overestimate with shared components")
	}
}

func TestExactMultipleAtomics(t *testing.T) {
	// Two atomic services over the same single path {a,b}: the service
	// needs a AND b once, not twice.
	st := &ServiceStructure{AtomicServices: []AtomicStructure{
		{Name: "s1", PathSets: []PathSet{{"a", "b"}}},
		{Name: "s2", PathSets: []PathSet{{"a", "b"}}},
	}}
	avail := map[string]float64{"a": 0.9, "b": 0.9}
	exact, err := st.Exact(avail)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-0.81) > 1e-12 {
		t.Errorf("exact = %v, want 0.81", exact)
	}
	// RBD squares it: 0.81^2.
	rbd, _ := st.RBDApprox(avail)
	if math.Abs(rbd-0.81*0.81) > 1e-12 {
		t.Errorf("rbd = %v, want %v", rbd, 0.81*0.81)
	}
}

func TestExactDegenerate(t *testing.T) {
	st, avail := simpleStructure()
	// Perfect components: availability 1.
	perfect := map[string]float64{"a": 1, "b": 1, "c": 1, "d": 1}
	if got, _ := st.Exact(perfect); got != 1 {
		t.Errorf("perfect = %v", got)
	}
	// A dead component on one path leaves the other path.
	dead := cloneAvail(avail)
	dead["a"] = 0
	got, _ := st.Exact(dead)
	want := 0.9 * 0.95
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("one dead path = %v, want %v", got, want)
	}
}

func TestStructureValidate(t *testing.T) {
	cases := []*ServiceStructure{
		{},
		{AtomicServices: []AtomicStructure{{Name: "", PathSets: []PathSet{{"a"}}}}},
		{AtomicServices: []AtomicStructure{{Name: "s"}}},
		{AtomicServices: []AtomicStructure{{Name: "s", PathSets: []PathSet{{}}}}},
	}
	for i, st := range cases {
		if err := st.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	st, avail := simpleStructure()
	if err := st.Validate(); err != nil {
		t.Errorf("valid structure rejected: %v", err)
	}
	// Missing availability entry.
	delete(avail, "d")
	if _, err := st.Exact(avail); err == nil {
		t.Error("missing availability should fail")
	}
	avail["d"] = 1.5
	if _, err := st.Exact(avail); err == nil {
		t.Error("out-of-range availability should fail")
	}
}

func TestComponents(t *testing.T) {
	st, _ := sharedStructure()
	got := st.Components()
	want := []string{"a", "b", "x"}
	if len(got) != len(want) {
		t.Fatalf("Components = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Components[%d] = %s", i, got[i])
		}
	}
}

func TestMonteCarloAgreesWithExact(t *testing.T) {
	for name, build := range map[string]func() (*ServiceStructure, map[string]float64){
		"simple": simpleStructure,
		"shared": sharedStructure,
	} {
		st, avail := build()
		exact, err := st.Exact(avail)
		if err != nil {
			t.Fatal(err)
		}
		mc, se, err := st.MonteCarlo(avail, 200000, 42)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc-exact) > 5*se+1e-9 {
			t.Errorf("%s: MC = %v ± %v, exact = %v", name, mc, se, exact)
		}
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	st, avail := sharedStructure()
	a1, _, _ := st.MonteCarlo(avail, 10000, 7)
	a2, _, _ := st.MonteCarlo(avail, 10000, 7)
	if a1 != a2 {
		t.Error("same seed must give same estimate")
	}
	if _, _, err := st.MonteCarlo(avail, 0, 7); err == nil {
		t.Error("zero samples should fail")
	}
}

// importances runs the compiled BirnbaumFussellVesely pass and keys both
// vectors by component name.
func importances(t *testing.T, st *ServiceStructure, avail map[string]float64) (birnbaum, fussellVesely map[string]float64) {
	t.Helper()
	cs := Compile(st)
	base, err := cs.Exact(avail)
	if err != nil {
		t.Fatal(err)
	}
	b, fv, err := cs.BirnbaumFussellVesely(avail, base)
	if err != nil {
		t.Fatal(err)
	}
	birnbaum = make(map[string]float64, len(b))
	fussellVesely = make(map[string]float64, len(fv))
	for i, c := range cs.Components() {
		birnbaum[c], fussellVesely[c] = b[i], fv[i]
	}
	return birnbaum, fussellVesely
}

func TestBirnbaum(t *testing.T) {
	st, avail := sharedStructure()
	birnbaum, _ := importances(t, st, avail)
	// x is a single point of failure: importance = A(up) - A(down) =
	// (1-0.04) - 0 = 0.96.
	bx := birnbaum["x"]
	if math.Abs(bx-0.96) > 1e-12 {
		t.Errorf("Birnbaum(x) = %v, want 0.96", bx)
	}
	// a is redundant with b: importance = 0.9*(1) - 0.9*0.8 = 0.18.
	ba := birnbaum["a"]
	if math.Abs(ba-0.18) > 1e-12 {
		t.Errorf("Birnbaum(a) = %v, want 0.18", ba)
	}
	if bx <= ba {
		t.Error("single point of failure must dominate redundant component")
	}
	delete(avail, "a")
	if _, _, err := Compile(st).BirnbaumFussellVesely(avail, 0.9); err == nil {
		t.Error("a component without availability should fail")
	}
}

func TestToRBDShape(t *testing.T) {
	st, avail := simpleStructure()
	b, err := st.ToRBD(avail)
	if err != nil {
		t.Fatal(err)
	}
	s := b.String()
	if s == "" {
		t.Error("empty RBD rendering")
	}
	a, err := b.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 || a > 1 {
		t.Errorf("RBD availability = %v", a)
	}
}

// Properties of the exact engine: result in [0,1]; monotone in every
// component availability; agrees with the RBD when all paths are disjoint.
func TestExactProperties(t *testing.T) {
	norm := func(x uint16) float64 { return float64(x%1001) / 1000 }
	f := func(pa, pb, pc, pd, px uint16) bool {
		st := &ServiceStructure{AtomicServices: []AtomicStructure{
			{Name: "s1", PathSets: []PathSet{{"x", "a"}, {"x", "b"}}},
			{Name: "s2", PathSets: []PathSet{{"c"}, {"d"}}},
		}}
		avail := map[string]float64{
			"a": norm(pa), "b": norm(pb), "c": norm(pc), "d": norm(pd), "x": norm(px),
		}
		v, err := st.Exact(avail)
		if err != nil || v < -1e-12 || v > 1+1e-12 {
			return false
		}
		// Monotonicity in x.
		hi := cloneAvail(avail)
		hi["x"] = math.Min(1, avail["x"]+0.1)
		v2, err := st.Exact(hi)
		if err != nil || v2+1e-12 < v {
			return false
		}
		// Exact never exceeds the naive RBD (positive dependence through
		// shared components only ever hurts redundancy).
		rbd, err := st.RBDApprox(avail)
		return err == nil && v <= rbd+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
