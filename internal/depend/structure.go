package depend

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// PathSet is one minimal path set: the component IDs that must all be
// available for one redundant path of an atomic service to work.
type PathSet []string

// AtomicStructure is the availability structure of one atomic service: it
// works iff at least one of its path sets is fully available. The path sets
// are exactly the paths Step 7 discovered, each expanded to its devices and
// connectors.
type AtomicStructure struct {
	Name     string
	PathSets []PathSet
}

// ServiceStructure is the structure function of a composite service: the
// service works iff every atomic service works (all actions of the activity
// diagram execute, Section V-A2). Components may be — and in practice are —
// shared between atomic services, so the structure is not series-parallel
// in general; Exact evaluates it by Shannon factoring.
type ServiceStructure struct {
	AtomicServices []AtomicStructure
}

// Validate checks structural sanity: at least one atomic service, each with
// at least one non-empty path set.
func (s *ServiceStructure) Validate() error {
	if len(s.AtomicServices) == 0 {
		return fmt.Errorf("depend: structure without atomic services")
	}
	for _, a := range s.AtomicServices {
		if a.Name == "" {
			return fmt.Errorf("depend: atomic structure without name")
		}
		if len(a.PathSets) == 0 {
			return fmt.Errorf("depend: atomic service %q has no path sets", a.Name)
		}
		for _, ps := range a.PathSets {
			if len(ps) == 0 {
				return fmt.Errorf("depend: atomic service %q has an empty path set", a.Name)
			}
		}
	}
	return nil
}

// Components returns the sorted distinct component IDs referenced by the
// structure.
func (s *ServiceStructure) Components() []string {
	seen := make(map[string]bool)
	for _, a := range s.AtomicServices {
		for _, ps := range a.PathSets {
			for _, c := range ps {
				seen[c] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func checkAvail(s *ServiceStructure, avail map[string]float64) error {
	for _, c := range s.Components() {
		a, ok := avail[c]
		if !ok {
			return fmt.Errorf(errFmtNoAvailability, c)
		}
		if err := checkProb(a, "availability of ", c); err != nil {
			return err
		}
	}
	return nil
}

// Exact computes the service availability exactly under component
// independence, handling shared components across path sets and atomic
// services by Shannon factoring: condition on the most frequent component,
// simplify, recurse, memoize. The cost is exponential in the number of
// *shared* components in the worst case but is negligible for UPSIM-sized
// structures (the case study has 10 components and factors in microseconds).
func (s *ServiceStructure) Exact(avail map[string]float64) (float64, error) {
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

// RBDApprox evaluates the naive series-parallel RBD reading of the
// structure — series over atomic services, each a parallel arrangement of
// series paths — *ignoring component sharing*. It matches Exact when no
// component is shared and overestimates redundancy otherwise; the delta is
// one of the reported experiments (the reason [20]'s transformation needs
// care).
func (s *ServiceStructure) RBDApprox(avail map[string]float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if err := checkAvail(s, avail); err != nil {
		return 0, err
	}
	return s.seriesParallel(avail), nil
}

// seriesParallel is ToRBD(avail).Availability() without the block tree: the
// same float operations in the same order as Series, Parallel and Basic, so
// the value is bit-identical. The float64 conversions round each product
// before it is subtracted, as the tree's method boundaries do, so no
// architecture fuses the two into one multiply-subtract. The caller has
// validated s and avail.
//
//upsim:hotpath the RBD stage of every analysis
func (s *ServiceStructure) seriesParallel(avail map[string]float64) float64 {
	svc := 1.0
	for _, a := range s.AtomicServices {
		q := 1.0
		for _, ps := range a.PathSets {
			ser := 1.0
			for _, c := range ps {
				ser *= avail[c]
			}
			q *= 1 - float64(ser)
		}
		svc *= 1 - float64(q)
	}
	return svc
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

// MonteCarlo estimates the service availability by sampling component
// states. It returns the estimate and the standard error. Deterministic per
// seed.
func (s *ServiceStructure) MonteCarlo(avail map[string]float64, samples int, seed int64) (est, stderr float64, err error) {
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
