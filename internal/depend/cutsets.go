package depend

import (
	"fmt"
	"sort"
)

// This file adds the classical fault-tree companions to the structure
// analysis: minimal path sets of the whole service, minimal cut sets (the
// sets of components whose joint failure brings the service down for this
// user — the paper's "quick overview on which ICT components can be the
// cause" of a service problem), the Esary–Proschan reliability bounds built
// from them, and what-if evaluation under forced component states.

// ServicePathSets returns the minimal path sets of the composite service as
// a whole: a service path set is a minimal component set whose joint
// availability keeps every atomic service working. It is computed as the
// minimalised cross-product of the per-atomic path sets. The number of raw
// unions is the product of the per-atomic path counts; limit caps the
// expansion (0 means DefaultSetLimit) and an overflow is an error rather
// than a silent truncation.
func (s *ServiceStructure) ServicePathSets(limit int) ([]PathSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if limit <= 0 {
		limit = DefaultSetLimit
	}
	raw := 1
	for _, a := range s.AtomicServices {
		raw *= len(a.PathSets)
		if raw > limit {
			return nil, &BudgetError{Kind: BudgetServicePathSets, Need: raw, Limit: limit}
		}
	}
	// Cross product of one path set per atomic service, as sorted component
	// unions.
	unions := []map[string]bool{{}}
	for _, a := range s.AtomicServices {
		var next []map[string]bool
		for _, u := range unions {
			for _, ps := range a.PathSets {
				nu := make(map[string]bool, len(u)+len(ps))
				for c := range u {
					nu[c] = true
				}
				for _, c := range ps {
					nu[c] = true
				}
				next = append(next, nu)
			}
		}
		unions = next
	}
	sets := make([]PathSet, 0, len(unions))
	for _, u := range unions {
		sets = append(sets, setToSorted(u))
	}
	return Minimalize(sets), nil
}

// DefaultSetLimit bounds the cross-product expansions of ServicePathSets
// and MinimalCutSets.
const DefaultSetLimit = 1 << 20

// MinimalCutSets returns the minimal cut sets of the service: the minimal
// component sets whose joint failure makes some atomic service lose every
// path. They are the minimal hitting sets (hypergraph transversals) of each
// atomic service's path sets, minimalised across atomic services. limit
// caps the intermediate transversal size (0 means DefaultSetLimit).
func (s *ServiceStructure) MinimalCutSets(limit int) ([]PathSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if limit <= 0 {
		limit = DefaultSetLimit
	}
	var all []PathSet
	for _, a := range s.AtomicServices {
		cuts, err := transversals(a.PathSets, limit)
		if err != nil {
			if be, ok := AsBudgetError(err); ok {
				return nil, be.forAtomic(a.Name)
			}
			return nil, fmt.Errorf(errFmtAtomicService, a.Name, err)
		}
		all = append(all, cuts...)
	}
	return Minimalize(all), nil
}

// transversals computes the minimal hitting sets of the given sets by
// incremental transversal construction: start with the singletons of the
// first set; for each further set, extend every transversal that misses it.
// Transversals are kept as sorted PathSets throughout — the canonicalization
// is hoisted out of the per-round minimalization, which used to convert
// every candidate map to a sorted slice and back on every round.
func transversals(sets []PathSet, limit int) ([]PathSet, error) {
	cur := []PathSet{{}}
	for _, ps := range sets {
		var next []PathSet
		for _, t := range cur {
			if hitsSorted(t, ps) {
				next = append(next, t)
				continue
			}
			for _, c := range ps {
				next = append(next, insertSorted(t, c))
			}
			if len(next) > limit {
				return nil, &BudgetError{Kind: BudgetTransversal, Limit: limit}
			}
		}
		cur = Minimalize(next)
	}
	return cur, nil
}

// hitsSorted reports whether the sorted transversal t intersects ps.
func hitsSorted(t PathSet, ps PathSet) bool {
	for _, c := range ps {
		i := sort.SearchStrings(t, c)
		if i < len(t) && t[i] == c {
			return true
		}
	}
	return false
}

// insertSorted returns sorted t with c added (t itself when c is present).
func insertSorted(t PathSet, c string) PathSet {
	i := sort.SearchStrings(t, c)
	if i < len(t) && t[i] == c {
		return t
	}
	nt := make(PathSet, 0, len(t)+1)
	nt = append(nt, t[:i]...)
	nt = append(nt, c)
	return append(nt, t[i:]...)
}

func hits(t map[string]bool, ps PathSet) bool {
	for _, c := range ps {
		if t[c] {
			return true
		}
	}
	return false
}

func setToSorted(m map[string]bool) PathSet {
	out := make(PathSet, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// comparePathSets orders sorted sets by cardinality, then element-wise
// lexicographically. This is the canonical cut/path-set ordering of the
// whole package: the compiled kernel reproduces it on bitsets (popcount,
// then lowest differing component id), which is only possible because the
// comparison is per element rather than over a joined string.
func comparePathSets(a, b PathSet) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Minimalize removes every set that is a (non-strict) superset of another
// set, and deduplicates. The input sets must be sorted; the output is
// sorted by size then element-wise lexicographically. Duplicates are
// adjacent after sorting, so no key strings are built: the former
// strings.Join canonicalization per candidate was the dominant allocation
// in transversal expansion.
func Minimalize(sets []PathSet) []PathSet {
	ordered := make([]PathSet, len(sets))
	copy(ordered, sets)
	sort.Slice(ordered, func(i, j int) bool {
		return comparePathSets(ordered[i], ordered[j]) < 0
	})
	var out []PathSet
	for i, cand := range ordered {
		if i > 0 && comparePathSets(ordered[i-1], cand) == 0 {
			continue
		}
		dominated := false
		for _, kept := range out {
			if isSubset(kept, cand) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		out = append(out, cand)
	}
	return out
}

// isSubset reports whether sorted sub ⊆ sorted super.
func isSubset(sub, super PathSet) bool {
	i := 0
	for _, c := range super {
		if i == len(sub) {
			return true
		}
		if sub[i] == c {
			i++
		}
	}
	return i == len(sub)
}

// Bounds holds the Esary–Proschan availability bounds.
type Bounds struct {
	Lower float64 // from the minimal cut sets
	Upper float64 // from the minimal (service) path sets
}

// EsaryProschan computes the classical bounds on the service availability
// for independent components with positively associated structure:
//
//	Π_cuts (1 − Π_{i∈K} (1−A_i))  ≤  A_service  ≤  1 − Π_paths (1 − Π_{i∈P} A_i)
//
// They bracket the exact value (tested) and are cheap when the exact
// factoring would be expensive.
func (s *ServiceStructure) EsaryProschan(avail map[string]float64, limit int) (Bounds, error) {
	if err := checkAvail(s, avail); err != nil {
		return Bounds{}, err
	}
	paths, err := s.ServicePathSets(limit)
	if err != nil {
		return Bounds{}, err
	}
	cuts, err := s.MinimalCutSets(limit)
	if err != nil {
		return Bounds{}, err
	}
	lower := 1.0
	for _, k := range cuts {
		qAll := 1.0
		for _, c := range k {
			qAll *= 1 - avail[c]
		}
		lower *= 1 - qAll
	}
	upperFail := 1.0
	for _, p := range paths {
		aAll := 1.0
		for _, c := range p {
			aAll *= avail[c]
		}
		upperFail *= 1 - aAll
	}
	return Bounds{Lower: lower, Upper: 1 - upperFail}, nil
}

// ExactInclusionExclusion evaluates the service availability by
// inclusion–exclusion over the minimal service path sets:
//
//	A = Σ_{∅≠S⊆paths} (−1)^{|S|+1} · Π_{c ∈ ∪S} A_c
//
// It is an independent oracle for the Shannon-factoring engine (the tests
// cross-check both) with cost 2^|paths|; limit bounds the path-set count
// (0 means 20, i.e. ~10⁶ subset terms).
func (s *ServiceStructure) ExactInclusionExclusion(avail map[string]float64, limit int) (float64, error) {
	if err := checkAvail(s, avail); err != nil {
		return 0, err
	}
	paths, err := s.ServicePathSets(0)
	if err != nil {
		return 0, err
	}
	if limit <= 0 {
		limit = 20
	}
	if len(paths) > limit {
		return 0, fmt.Errorf("depend: inclusion-exclusion over %d path sets exceeds limit %d", len(paths), limit)
	}
	// The product over the union runs in sorted component order, so the
	// float multiplies do not reorder from call to call with map iteration.
	comps := s.Components()
	total := 0.0
	n := len(paths)
	for mask := 1; mask < 1<<n; mask++ {
		union := map[string]bool{}
		bits := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			bits++
			for _, c := range paths[i] {
				union[c] = true
			}
		}
		prod := 1.0
		for _, c := range comps {
			if union[c] {
				prod *= avail[c]
			}
		}
		if bits%2 == 1 {
			total += prod
		} else {
			total -= prod
		}
	}
	return total, nil
}

// WhatIf evaluates the exact service availability with the given components
// forced up (true) or down (false), e.g. "what does this user perceive
// while c1 is under maintenance?". Components absent from forced keep their
// availability.
func (s *ServiceStructure) WhatIf(avail map[string]float64, forced map[string]bool) (float64, error) {
	adj := cloneAvail(avail)
	for c, up := range forced {
		if _, ok := adj[c]; !ok {
			return 0, fmt.Errorf(errFmtForcedNotInStruct, c)
		}
		if up {
			adj[c] = 1
		} else {
			adj[c] = 0
		}
	}
	return s.Exact(adj)
}
