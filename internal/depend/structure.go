package depend

import (
	"fmt"
	"sort"
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
// It compiles s on every call (Compile(s).Exact); a caller evaluating one
// structure repeatedly should keep the CompiledStructure.
func (s *ServiceStructure) Exact(avail map[string]float64) (float64, error) {
	return Compile(s).Exact(avail)
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

// seriesParallel evaluates the series-parallel RBD of the structure —
// Series over atomic services of Parallel over path sets of Series over
// components — without building the block tree (ToRBD in oracle_test.go
// builds it): the same float operations in the same order as Series,
// Parallel and Basic, so the value is bit-identical. The float64
// conversions round each product before it is subtracted, as the tree's
// method boundaries do, so no architecture fuses the two into one
// multiply-subtract. The caller has validated s and avail.
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

// MonteCarlo estimates the service availability by sampling component
// states. It returns the estimate and the standard error. Deterministic per
// seed. It runs Compile(s).MonteCarlo.
func (s *ServiceStructure) MonteCarlo(avail map[string]float64, samples int, seed int64) (est, stderr float64, err error) {
	return Compile(s).MonteCarlo(avail, samples, seed)
}
