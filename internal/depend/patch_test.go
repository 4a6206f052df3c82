package depend

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// filteredStructure is the recompile-side reference for
// PatchRemoveComponent: the legacy structure with every path set containing
// a removed component dropped.
func filteredStructure(s *ServiceStructure, removed map[string]bool) *ServiceStructure {
	out := &ServiceStructure{}
	for _, a := range s.AtomicServices {
		fa := AtomicStructure{Name: a.Name}
		for _, ps := range a.PathSets {
			dead := false
			for _, c := range ps {
				if removed[c] {
					dead = true
					break
				}
			}
			if !dead {
				fa.PathSets = append(fa.PathSets, ps)
			}
		}
		out.AtomicServices = append(out.AtomicServices, fa)
	}
	return out
}

// TestDependPatchEquivalence is the property test for the in-place bitset
// filter: over random structures and random removal sequences, a patched
// kernel must agree with a cold Compile of the filtered legacy structure on
// every analysis — values exactly, errors by message.
func TestDependPatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 200; trial++ {
		s, avail := randomStructure(rng)
		cs := Compile(s)
		removed := map[string]bool{}
		comps := cs.Components()
		nRemove := 1 + rng.Intn(2)
		for r := 0; r < nRemove; r++ {
			c := comps[rng.Intn(len(comps))]
			if removed[c] {
				continue
			}
			removed[c] = true
			if _, err := cs.PatchRemoveComponent(c); err != nil {
				t.Fatalf("trial %d: PatchRemoveComponent(%q): %v", trial, c, err)
			}
		}
		filtered := filteredStructure(s, removed)
		fresh := Compile(filtered)

		wantExact, wantErr := fresh.Exact(avail)
		gotExact, gotErr := cs.Exact(avail)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("trial %d removed=%v: Exact error mismatch: fresh=%v patched=%v", trial, removed, wantErr, gotErr)
		}
		if wantErr != nil {
			continue // structure died; every analysis fails identically
		}
		if !withinOneUlp(wantExact, gotExact) {
			t.Fatalf("trial %d removed=%v: Exact %v != %v", trial, removed, gotExact, wantExact)
		}

		// The map-based inclusion–exclusion oracle sums in another order
		// than factoring, so it agrees to rounding, not to the bit.
		ie, err := filtered.ExactInclusionExclusion(avail, 0)
		if err != nil {
			t.Fatalf("trial %d: IE error: %v", trial, err)
		}
		if math.Abs(ie-gotExact) > 1e-12 {
			t.Fatalf("trial %d removed=%v: patched Exact %v, inclusion-exclusion %v", trial, removed, gotExact, ie)
		}

		wantCuts, err1 := fresh.MinimalCutSets(0)
		gotCuts, err2 := cs.MinimalCutSets(0)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: cut errors: %v / %v", trial, err1, err2)
		}
		if !reflect.DeepEqual(wantCuts, gotCuts) {
			t.Fatalf("trial %d removed=%v: cuts diverge:\nfresh:   %v\npatched: %v", trial, removed, wantCuts, gotCuts)
		}
	}
}

// TestPatchRemoveComponentReporting covers the non-property behaviour:
// dropped counts, unknown components, structure death.
func TestPatchRemoveComponentReporting(t *testing.T) {
	s := &ServiceStructure{AtomicServices: []AtomicStructure{
		{Name: "svc", PathSets: []PathSet{{"a", "b"}, {"c"}}},
	}}
	cs := Compile(s)
	if !cs.Has("a") || cs.Has("zz") {
		t.Fatal("Has misreports universe membership")
	}
	dropped, err := cs.PatchRemoveComponent("a")
	if err != nil || dropped != 1 {
		t.Fatalf("dropped=%d err=%v, want 1, nil", dropped, err)
	}
	if cs.Err() != nil {
		t.Fatalf("structure died early: %v", cs.Err())
	}
	if _, err := cs.PatchRemoveComponent("zz"); err == nil {
		t.Fatal("unknown component accepted")
	}
	dropped, err = cs.PatchRemoveComponent("c")
	if err != nil || dropped != 1 {
		t.Fatalf("dropped=%d err=%v, want 1, nil", dropped, err)
	}
	if cs.Err() == nil {
		t.Fatal("structure with no path sets did not die")
	}
	if _, err := cs.Exact(map[string]float64{"a": 1, "b": 1, "c": 1}); err == nil {
		t.Fatal("Exact on dead structure succeeded")
	}
}

// TestSmallCuts pins the bounded cut query against the full enumeration on
// random structures: SmallCuts(k) must equal the size<=k subset of
// MinimalCutSets (as unordered sets of sorted name-sets; the full
// enumeration orders cuts differently).
func TestSmallCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		s, _ := randomStructure(rng)
		cs := Compile(s)
		full, err := cs.MinimalCutSets(0)
		if err != nil {
			t.Fatalf("trial %d: MinimalCutSets: %v", trial, err)
		}
		for _, k := range []int{1, 2} {
			want := map[string]bool{}
			for _, cut := range full {
				if len(cut) <= k {
					want[strings.Join(cut, ",")] = true
				}
			}
			small, err := cs.SmallCuts(k)
			if err != nil {
				t.Fatalf("trial %d: SmallCuts(%d): %v", trial, k, err)
			}
			got := map[string]bool{}
			for _, cut := range small {
				if len(cut) > k {
					t.Fatalf("trial %d: SmallCuts(%d) emitted %v", trial, k, cut)
				}
				got[strings.Join(cut, ",")] = true
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d: SmallCuts(%d) = %v, want %v (full %v)", trial, k, small, want, full)
			}
		}
	}
}
