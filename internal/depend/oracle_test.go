package depend

// The map-based reference implementations of the compiled kernel's §VII
// quantities: Shannon factoring over string path sets, transversal
// construction over sorted string sets, and the per-sample Monte Carlo
// sampler. They are deliberately the straightforward reading of the
// algorithms, with no interning, arenas or packed memo, so that the
// equivalence tests and FuzzCompiledKernel pin CompiledStructure to an
// independent implementation. They share the package's error-format
// constants, so the compared error texts cannot drift apart.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// oracleExact computes the service availability exactly under component
// independence by Shannon factoring: condition on the most frequent
// component, simplify, recurse, memoize.
func oracleExact(s *ServiceStructure, avail map[string]float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if err := checkAvail(s, avail); err != nil {
		return 0, err
	}
	f := newFormula(s)
	memo := make(map[string]float64)
	return factor(f, avail, memo), nil
}

// formula is the monotone AND-of-OR-of-AND normal form being factored.
// Invariants maintained by condition():
//   - no atomic has an empty path set list (that would be constant false),
//   - no path set is empty (that atomic would be constant true and removed).
type formula struct {
	atomics [][]PathSet
}

func newFormula(s *ServiceStructure) formula {
	f := formula{atomics: make([][]PathSet, 0, len(s.AtomicServices))}
	for _, a := range s.AtomicServices {
		sets := make([]PathSet, 0, len(a.PathSets))
		for _, ps := range a.PathSets {
			cp := append(PathSet(nil), ps...)
			sort.Strings(cp)
			sets = append(sets, cp)
		}
		f.atomics = append(f.atomics, sets)
	}
	return f
}

// key returns a canonical string for memoization.
func (f formula) key() string {
	parts := make([]string, 0, len(f.atomics))
	for _, sets := range f.atomics {
		ss := make([]string, 0, len(sets))
		for _, ps := range sets {
			ss = append(ss, strings.Join(ps, ","))
		}
		sort.Strings(ss)
		parts = append(parts, strings.Join(ss, ";"))
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// mostFrequent returns the component appearing in the most path sets.
func (f formula) mostFrequent() string {
	count := make(map[string]int)
	for _, sets := range f.atomics {
		for _, ps := range sets {
			for _, c := range ps {
				count[c]++
			}
		}
	}
	best, bestN := "", -1
	for c, n := range count {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best
}

// condition returns f with component c fixed to up (true) or down (false).
// The second result is a constant override: 0 → formula is false, 1 →
// formula is true, -1 → use the returned formula.
func (f formula) condition(c string, up bool) (formula, int) {
	out := formula{atomics: make([][]PathSet, 0, len(f.atomics))}
	for _, sets := range f.atomics {
		var newSets []PathSet
		satisfied := false
		for _, ps := range sets {
			has := false
			for _, x := range ps {
				if x == c {
					has = true
					break
				}
			}
			switch {
			case !has:
				newSets = append(newSets, ps)
			case up:
				reduced := make(PathSet, 0, len(ps)-1)
				for _, x := range ps {
					if x != c {
						reduced = append(reduced, x)
					}
				}
				if len(reduced) == 0 {
					satisfied = true
				} else {
					newSets = append(newSets, reduced)
				}
			default:
				// Component down: the path set fails; drop it.
			}
			if satisfied {
				break
			}
		}
		if satisfied {
			continue // this atomic service is available for sure
		}
		if len(newSets) == 0 {
			return formula{}, 0 // some atomic service cannot work
		}
		out.atomics = append(out.atomics, newSets)
	}
	if len(out.atomics) == 0 {
		return formula{}, 1 // every atomic service is available for sure
	}
	return out, -1
}

func factor(f formula, avail map[string]float64, memo map[string]float64) float64 {
	key := f.key()
	if v, ok := memo[key]; ok {
		return v
	}
	c := f.mostFrequent()
	a := avail[c]
	var up, down float64
	if fUp, konst := f.condition(c, true); konst >= 0 {
		up = float64(konst)
	} else {
		up = factor(fUp, avail, memo)
	}
	if fDown, konst := f.condition(c, false); konst >= 0 {
		down = float64(konst)
	} else {
		down = factor(fDown, avail, memo)
	}
	v := a*up + (1-a)*down
	memo[key] = v
	return v
}

// oracleMinimalCutSets returns the minimal cut sets of the service: the
// minimal hitting sets of each atomic service's path sets, minimalised
// across atomic services. limit caps the intermediate transversal size (0
// means DefaultSetLimit).
func oracleMinimalCutSets(s *ServiceStructure, limit int) ([]PathSet, error) {
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
// Transversals are kept as sorted PathSets throughout.
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

// oracleWhatIf evaluates the exact service availability with the given
// components forced up (true) or down (false). Components absent from
// forced keep their availability. The availability map is validated as
// given before anything is forced, so an out-of-range availability of a
// forced component is an error, as in CompiledStructure.WhatIf.
func oracleWhatIf(s *ServiceStructure, avail map[string]float64, forced map[string]bool) (float64, error) {
	for c := range forced {
		if _, ok := avail[c]; !ok {
			return 0, fmt.Errorf(errFmtForcedNotInStruct, c)
		}
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if err := checkAvail(s, avail); err != nil {
		return 0, err
	}
	adj := cloneAvail(avail)
	for c, up := range forced {
		if up {
			adj[c] = 1
		} else {
			adj[c] = 0
		}
	}
	return oracleExact(s, adj)
}

// oracleMonteCarlo estimates the service availability by sampling
// component states: one rand.Float64() < a per component, in sorted
// component order, sample after sample. It returns the estimate and the
// standard error. Deterministic per seed.
func oracleMonteCarlo(s *ServiceStructure, avail map[string]float64, samples int, seed int64) (est, stderr float64, err error) {
	if err := s.Validate(); err != nil {
		return 0, 0, err
	}
	if err := checkAvail(s, avail); err != nil {
		return 0, 0, err
	}
	if samples < 1 {
		return 0, 0, fmt.Errorf(errFmtMonteCarloSamples, samples)
	}
	comps := s.Components()
	idx := make(map[string]int, len(comps))
	for i, c := range comps {
		idx[c] = i
	}
	// Pre-index path sets to component indexes for sampling speed.
	type atomicIdx struct{ sets [][]int }
	atomics := make([]atomicIdx, 0, len(s.AtomicServices))
	for _, a := range s.AtomicServices {
		var ai atomicIdx
		for _, ps := range a.PathSets {
			set := make([]int, len(ps))
			for i, c := range ps {
				set[i] = idx[c]
			}
			ai.sets = append(ai.sets, set)
		}
		atomics = append(atomics, ai)
	}
	rng := rand.New(rand.NewSource(seed))
	up := make([]bool, len(comps))
	good := 0
	for n := 0; n < samples; n++ {
		for i, c := range comps {
			up[i] = rng.Float64() < avail[c]
		}
		ok := true
		for _, a := range atomics {
			works := false
			for _, set := range a.sets {
				all := true
				for _, ci := range set {
					if !up[ci] {
						all = false
						break
					}
				}
				if all {
					works = true
					break
				}
			}
			if !works {
				ok = false
				break
			}
		}
		if ok {
			good++
		}
	}
	p := float64(good) / float64(samples)
	return p, math.Sqrt(p * (1 - p) / float64(samples)), nil
}

func cloneAvail(m map[string]float64) map[string]float64 {
	c := make(map[string]float64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
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

// ToRBD builds the series-parallel RBD of the structure: Series over atomic
// services of Parallel over path sets of Series over components.
func (s *ServiceStructure) ToRBD(avail map[string]float64) (Block, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := checkAvail(s, avail); err != nil {
		return nil, err
	}
	var svc Series
	for _, a := range s.AtomicServices {
		var par Parallel
		for _, ps := range a.PathSets {
			var ser Series
			for _, c := range ps {
				ser = append(ser, Basic{Name: c, A: avail[c]})
			}
			par = append(par, ser)
		}
		svc = append(svc, par)
	}
	return svc, nil
}
