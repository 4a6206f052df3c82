package depend

import (
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
// caps the intermediate transversal size (0 means DefaultSetLimit). It runs
// Compile(s).MinimalCutSets.
func (s *ServiceStructure) MinimalCutSets(limit int) ([]PathSet, error) {
	return Compile(s).MinimalCutSets(limit)
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

// WhatIf evaluates the exact service availability with the given components
// forced up (true) or down (false), e.g. "what does this user perceive
// while c1 is under maintenance?". Components absent from forced keep their
// availability; a forced component must be a key of avail, and its own
// availability must lie in [0,1] like every other. It runs
// Compile(s).WhatIf.
func (s *ServiceStructure) WhatIf(avail map[string]float64, forced map[string]bool) (float64, error) {
	return Compile(s).WhatIf(avail, forced)
}
