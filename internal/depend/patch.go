package depend

// This file implements incremental patching of the compiled dependability
// kernel — the depend half of the live-topology what-if engine (DESIGN.md
// §13) — plus the bounded small-cut query behind critical-component
// ranking.
//
// Removing a component from the infrastructure conditions the structure
// function on that component being permanently down: every path set that
// contains it is dead and drops out. That is a pure filter over the bitset
// path sets, so it patches in place; the interned universe (names, index,
// bitset width) is deliberately left untouched so that ids, packed
// availability vectors and previously-issued bitsets all stay valid.
// Additions are the other side of the compile-vs-patch boundary: a new
// component or link can create paths the original discovery never saw, so
// the owning UPSIM must be re-generated and the structure recompiled — the
// what-if engine routes additions to recompilation and counts them
// separately on /metrics.
//
// Patching is NOT safe concurrently with analyses; callers serialise, e.g.
// behind the what-if engine mutex.

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"upsim/internal/obs"
)

// errFmtCompNotInStruct reports a component outside the interned universe.
const errFmtCompNotInStruct = "depend: component %q not in structure"

// mDependPatch counts in-place path-set filters applied to compiled
// structures.
var mDependPatch = obs.NewCounter("upsim_depend_patch_total",
	"Incremental component-removal patches applied to compiled dependability structures.")

// Has reports whether the component is part of the interned universe (the
// structure references it). The what-if engine uses this to skip services a
// failure cannot touch.
func (cs *CompiledStructure) Has(component string) bool {
	_, ok := cs.index[component]
	return ok
}

// PatchRemoveComponent conditions the structure on the named component
// being permanently failed: every path set containing it is dropped in
// place. The interned universe keeps the component (ids stay stable); it
// simply no longer appears in any set, exactly as if the filtered legacy
// structure had been recompiled (pinned by TestDependPatchEquivalence). If
// an atomic service loses its last path set the service can no longer
// work, and subsequent analyses fail with the same "no path sets" error a
// recompilation would report.
//
// It returns the number of path sets dropped. Removing a component that is
// not in the universe is an error.
func (cs *CompiledStructure) PatchRemoveComponent(component string) (int, error) {
	id, ok := cs.index[component]
	if !ok {
		return 0, fmt.Errorf(errFmtCompNotInStruct, component)
	}
	dropped := 0
	for i := range cs.atomics {
		a := &cs.atomics[i]
		kept := a.sets[:0]
		for _, s := range a.sets {
			if s.has(id) {
				dropped++
				continue
			}
			kept = append(kept, s)
		}
		a.sets = kept
	}
	// The factoring program encodes the old sets; the next exact
	// evaluation records a new one.
	cs.progOnce, cs.prog = sync.Once{}, nil
	// Recompute the patch-induced death error from scratch each time: a
	// recompilation blames the first empty atomic in declaration order, not
	// the first one that happened to die, so later removals may move the
	// blame earlier. Genuine pre-existing Validate errors are never
	// overwritten (sets only ever shrink, so they stay accurate).
	if cs.validErr == nil || cs.patchDead {
		cs.validErr, cs.patchDead = nil, false
		for _, a := range cs.atomics {
			if len(a.sets) == 0 {
				cs.validErr = fmt.Errorf("depend: atomic service %q has no path sets", a.name)
				cs.patchDead = true
				break
			}
		}
	}
	mDependPatch.With().Inc()
	return dropped, nil
}

// SmallCuts returns the minimal cut sets of size <= maxSize (1 or 2),
// found by direct bitset queries instead of the exponential transversal
// expansion — so it never trips the cut-set budget and is safe on
// structures whose full minimal-cut enumeration would explode. This powers
// the critical-component ranking of the what-if engine: size-1 cuts are
// single points of failure, size-2 cuts are the fragile pairs.
//
// A component c is a size-1 cut iff some atomic service has c in every
// path set. A pair {c, d} is a size-2 minimal cut iff some atomic service
// has c or d in every path set and neither alone is a cut. Components are
// emitted in ascending interned order, singles before pairs.
func (cs *CompiledStructure) SmallCuts(maxSize int) ([]PathSet, error) {
	if cs.validErr != nil {
		return nil, cs.validErr
	}
	if maxSize < 1 {
		return nil, nil
	}
	n := int32(len(cs.names))
	inter := make(bitset, cs.words)
	singles := make([]bool, n)
	for _, a := range cs.atomics {
		cs.intersectAll(inter, a.sets, -1)
		forEachBit(inter, n, func(c int32) { singles[c] = true })
	}
	var cuts []PathSet
	for c := int32(0); c < n; c++ {
		if singles[c] {
			cuts = append(cuts, PathSet{cs.names[c]})
		}
	}
	if maxSize < 2 {
		return cuts, nil
	}
	pairs := make(map[uint64]bool)
	for _, a := range cs.atomics {
		for c := int32(0); c < n; c++ {
			if singles[c] {
				continue
			}
			if !cs.intersectAll(inter, a.sets, c) {
				continue // every set contains c — would be a single, handled
			}
			forEachBit(inter, n, func(d int32) {
				if d > c && !singles[d] {
					pairs[uint64(c)<<32|uint64(d)] = true
				}
			})
		}
	}
	keys := make([]uint64, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		cuts = append(cuts, PathSet{cs.names[int32(k>>32)], cs.names[int32(k&0xffffffff)]})
	}
	return cuts, nil
}

// intersectAll fills inter with the bitwise AND of the sets that do not
// contain skip (skip < 0 keeps every set). It reports whether at least one
// set contributed.
//
//upsim:hotpath
func (cs *CompiledStructure) intersectAll(inter bitset, sets []bitset, skip int32) bool {
	for w := range inter {
		inter[w] = ^uint64(0)
	}
	any := false
	for _, s := range sets {
		if skip >= 0 && s.has(skip) {
			continue
		}
		any = true
		for w := range inter {
			inter[w] &= s[w]
		}
	}
	if !any {
		for w := range inter {
			inter[w] = 0
		}
	}
	return any
}

// forEachBit calls f for every set bit below n, in ascending order.
//
//upsim:hotpath
func forEachBit(b bitset, n int32, f func(int32)) {
	for w, word := range b {
		for word != 0 {
			i := int32(w<<6 + bits.TrailingZeros64(word))
			if i >= n {
				return
			}
			f(i)
			word &= word - 1
		}
	}
}
