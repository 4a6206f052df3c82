package depend

// This file implements the compiled dependability kernel: a one-time
// lowering of a ServiceStructure into interned integer component ids and
// []uint64 bitset path sets, over which the §VII analysis algorithms run
// without string hashing or per-candidate map allocation. Subset tests and
// transversal hits become AND/AND-NOT word operations, Minimalize compares
// popcounts and lowest differing bits instead of joined strings, exact
// evaluation replays a recorded factoring program (program.go), and Monte
// Carlo sampling evaluates the structure function on 64 samples per word
// (montecarlo.go). It is the only product implementation of these
// quantities; the ServiceStructure methods forward to it. Every algorithm
// reproduces the map-based reference of oracle_test.go exactly: same sets
// in the same canonical (cardinality, then element-wise lexicographic)
// order, same error messages, and bit-identical floats — component ids are
// assigned in sorted-name order, so ascending-id bit iteration multiplies
// availabilities in exactly the order the sorted-name loops of the
// reference do. See DESIGN.md §10.

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"upsim/internal/obs"
)

// Error formats of the kernel's validation, shared with the map-based
// reference of oracle_test.go so that the tests compare one text.
const (
	errFmtNoAvailability    = "depend: no availability for component %q"
	errFmtAtomicService     = "depend: atomic service %q: %w"
	errFmtMonteCarloSamples = "depend: MonteCarlo needs at least 1 sample, got %d"
	errFmtForcedNotInStruct = "depend: forced component %q not in structure"
)

// Compiled-kernel metrics: compilation events and the size of the most
// recent structure, exposed on /metrics next to the per-algorithm analysis
// histograms observed by AnalyzeContext.
var (
	mDependCompile = obs.NewCounter("upsim_depend_compile_total",
		"Service structures lowered to the bitset kernel.")
	mDependComponents = obs.NewGauge("upsim_depend_compiled_components",
		"Component count of the most recently compiled structure.")
)

// bitset is a fixed-width set of component ids, one bit per id.
type bitset []uint64

//upsim:hotpath bit ops, one per membership test in every analysis loop
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

//upsim:hotpath
func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// containsAll reports sub ⊆ super.
//
//upsim:hotpath
func containsAll(sub, super bitset) bool {
	for w, x := range sub {
		if x&^super[w] != 0 {
			return false
		}
	}
	return true
}

// intersects reports sub ∩ super ≠ ∅.
//
//upsim:hotpath
func intersects(a, b bitset) bool {
	for w, x := range a {
		if x&b[w] != 0 {
			return true
		}
	}
	return false
}

//upsim:hotpath
func popcount(b bitset) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// compareBits orders bitsets by cardinality, then element-wise
// lexicographically on the sorted member sequence. For equal cardinality
// the first differing element is the lowest bit of the symmetric
// difference, and the set containing it sorts first — because ids are
// interned in sorted-name order this reproduces comparePathSets exactly.
//
//upsim:hotpath
func compareBits(a, b bitset) int {
	if ca, cb := popcount(a), popcount(b); ca != cb {
		return ca - cb
	}
	for w, x := range a {
		if d := x ^ b[w]; d != 0 {
			if x&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// minimalizeBits is Minimalize on bitsets: sort canonically, drop adjacent
// duplicates, drop supersets of kept sets. The survivors are appended to
// out, which must not share a backing array with sets: filtering into
// sets[:0] instead would clobber sets[i-1], which the adjacent-duplicate
// check still reads. Callers size out from the only upper bound known
// without a second pass (every candidate survives), or pass a pooled
// buffer.
//
//upsim:hotpath
func minimalizeBits(sets, out []bitset) []bitset {
	slices.SortFunc(sets, compareBits)
	for i, cand := range sets {
		if i > 0 && compareBits(sets[i-1], cand) == 0 {
			continue
		}
		dominated := false
		for _, kept := range out {
			if containsAll(kept, cand) {
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

// arenaChunk is the block size (in words) of the bitset scratch arena.
const arenaChunk = 4096

// bitArena is a bump allocator for transient bitsets (cross-product unions,
// transversal candidates). Blocks are recycled through the package-level
// arenaPool, shared by every compiled structure, so steady-state analysis
// allocates nothing per candidate — not even the first analysis of a freshly
// compiled structure. Allocated bitsets are only valid until the arena is
// returned.
type bitArena struct {
	blocks [][]uint64
	bi     int // current block
	off    int // next free word in current block

	// Per-level header buffers of transversalsBits, reused level to level
	// and across analyses: next collects one level's candidates, cur its
	// minimalised survivors.
	next, cur []bitset
}

//upsim:hotpath
func (a *bitArena) reset() { a.bi, a.off = 0, 0 }

//upsim:hotpath bump allocation; amortised growth via chunked blocks only
func (a *bitArena) alloc(w int) bitset {
	if w == 0 {
		return nil
	}
	for {
		if a.bi == len(a.blocks) {
			n := arenaChunk
			if w > n {
				n = w
			}
			a.blocks = append(a.blocks, make([]uint64, n))
		}
		if blk := a.blocks[a.bi]; a.off+w <= len(blk) {
			b := blk[a.off : a.off+w : a.off+w]
			a.off += w
			for i := range b {
				b[i] = 0
			}
			return b
		}
		a.bi++
		a.off = 0
	}
}

// compiledAtomic is one atomic service in interned form: its path sets as
// bitsets, in the original declaration order.
type compiledAtomic struct {
	name string
	sets []bitset
}

// CompiledStructure is the interned, bitset form of a ServiceStructure,
// built once by Compile and reusable across any number of analyses. It is
// immutable after construction and safe for concurrent use; per-analysis
// scratch comes from the package-level pools. Component ids are dense ints in
// sorted-name order, so ascending-id iteration visits components exactly as
// sorted Components() loops do.
type CompiledStructure struct {
	names   []string         // dense component id -> name (sorted)
	index   map[string]int32 // name -> dense component id
	words   int              // bitset width: ceil(len(names)/64)
	atomics []compiledAtomic

	validErr  error // Validate() result of the source structure, if any
	patchDead bool  // validErr was induced by PatchRemoveComponent (see patch.go)

	// The Shannon factoring program (program.go), recorded by the first
	// exact evaluation and dropped by PatchRemoveComponent.
	progOnce sync.Once
	prog     []factorNode
}

// arenaPool recycles bitset arenas across every compiled structure.
var arenaPool = sync.Pool{New: func() any { return new(bitArena) }}

// Compile lowers s into its interned bitset form. An invalid structure
// still compiles (the component universe is well defined regardless); its
// Validate error is stored and returned by every analysis entry point.
func Compile(s *ServiceStructure) *CompiledStructure {
	return compile(s, s.Components(), s.Validate())
}

// compile is Compile with the structure's sorted components and Validate
// outcome supplied by a caller that already has them; names is retained.
func compile(s *ServiceStructure, names []string, validErr error) *CompiledStructure {
	cs := &CompiledStructure{
		names:    names,
		index:    make(map[string]int32, len(names)),
		words:    (len(names) + 63) / 64,
		validErr: validErr,
	}
	for i, c := range names {
		cs.index[c] = int32(i)
	}
	// Every path set's bitset is carved from one word slab and every atomic
	// service's set list from one header slab, each capped at its own
	// extent: PatchRemoveComponent filters a list in place, within it.
	nSets := 0
	for _, a := range s.AtomicServices {
		nSets += len(a.PathSets)
	}
	words := make([]uint64, nSets*cs.words)
	sets := make([]bitset, 0, nSets)
	cs.atomics = make([]compiledAtomic, 0, len(s.AtomicServices))
	for _, a := range s.AtomicServices {
		first := len(sets)
		for _, ps := range a.PathSets {
			b := bitset(words[:cs.words:cs.words])
			words = words[cs.words:]
			for _, c := range ps {
				b.set(cs.index[c])
			}
			sets = append(sets, b)
		}
		ca := compiledAtomic{name: a.Name, sets: sets[first:len(sets):len(sets)]}
		cs.atomics = append(cs.atomics, ca)
	}
	mDependCompile.With().Inc()
	mDependComponents.With().Set(int64(len(names)))
	return cs
}

// Components returns the sorted distinct component ids of the structure —
// identical to ServiceStructure.Components.
func (cs *CompiledStructure) Components() []string {
	return append([]string(nil), cs.names...)
}

// NumComponents returns the size of the interned component universe.
func (cs *CompiledStructure) NumComponents() int { return len(cs.names) }

// Words returns the number of 64-bit words one packed component set spans.
func (cs *CompiledStructure) Words() int { return cs.words }

// Err returns the Validate error of the source structure, if any.
func (cs *CompiledStructure) Err() error { return cs.validErr }

func getArena() *bitArena {
	a := arenaPool.Get().(*bitArena)
	a.reset()
	return a
}

func putArena(a *bitArena) { arenaPool.Put(a) }

// packAvail lowers the availability map onto the dense id space, with the
// exact validation (and error messages) of checkAvail.
func (cs *CompiledStructure) packAvail(avail map[string]float64) ([]float64, error) {
	pa := make([]float64, len(cs.names))
	for i, c := range cs.names {
		a, ok := avail[c]
		if !ok {
			return nil, fmt.Errorf(errFmtNoAvailability, c)
		}
		if err := checkProb(a, "availability of ", c); err != nil {
			return nil, err
		}
		pa[i] = a
	}
	return pa, nil
}

// toPathSets converts bitsets back to sorted component-name sets, the
// boundary representation of the ServiceStructure API. Every set is carved
// from one name slab sized by the summed popcounts.
func (cs *CompiledStructure) toPathSets(sets []bitset) []PathSet {
	total := 0
	for _, b := range sets {
		total += popcount(b)
	}
	names := make([]string, 0, total)
	out := make([]PathSet, 0, len(sets))
	for _, b := range sets {
		start := len(names)
		for w, word := range b {
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				names = append(names, cs.names[i])
				word &= word - 1
			}
		}
		// Capped at its own names: an append to one set never overwrites
		// the next.
		out = append(out, names[start:len(names):len(names)])
	}
	return out
}

// MinimalCutSets returns the minimal cut sets of the service (see
// ServiceStructure.MinimalCutSets): minimal hitting sets of each atomic
// service's path sets, minimalised across atomic services.
func (cs *CompiledStructure) MinimalCutSets(limit int) ([]PathSet, error) {
	sets, ar, err := cs.minimalCutBits(limit)
	if err != nil {
		return nil, err
	}
	out := cs.toPathSets(sets)
	putArena(ar)
	return out, nil
}

func (cs *CompiledStructure) minimalCutBits(limit int) ([]bitset, *bitArena, error) {
	if cs.validErr != nil {
		return nil, nil, cs.validErr
	}
	if limit <= 0 {
		limit = DefaultSetLimit
	}
	ar := getArena()
	var all []bitset
	for _, a := range cs.atomics {
		cuts, err := transversalsBits(a.sets, cs.words, limit, ar)
		if err != nil {
			putArena(ar)
			if be, ok := AsBudgetError(err); ok {
				return nil, nil, be.forAtomic(a.name)
			}
			return nil, nil, fmt.Errorf(errFmtAtomicService, a.name, err)
		}
		all = append(all, cuts...) // copied out of the arena's level buffer
	}
	return minimalizeBits(all, make([]bitset, 0, len(all))), ar, nil
}

// transversalsBits is the bitset transversal construction: extending a
// transversal is copy + one OR, the hit test is a word-AND, and all
// candidates live in the arena. The per-level slices are the arena's
// pooled header buffers, so the returned transversals are only valid until
// the next transversalsBits call on ar.
//
//upsim:hotpath
func transversalsBits(sets []bitset, words, limit int, ar *bitArena) ([]bitset, error) {
	cur := append(ar.cur[:0], ar.alloc(words))
	next := ar.next[:0]
	for _, ps := range sets {
		next = next[:0]
		for _, t := range cur {
			if intersects(t, ps) {
				next = append(next, t)
				continue
			}
			for w, word := range ps {
				for word != 0 {
					low := word & -word
					nt := ar.alloc(words)
					copy(nt, t)
					nt[w] |= low
					next = append(next, nt)
					word &^= low
				}
			}
			if len(next) > limit {
				ar.cur, ar.next = cur, next
				return nil, &BudgetError{Kind: BudgetTransversal, Limit: limit}
			}
		}
		cur = minimalizeBits(next, cur[:0])
	}
	ar.cur, ar.next = cur, next
	return cur, nil
}

// Exact computes the service availability exactly (see
// ServiceStructure.Exact): Shannon factoring with the pivot rule of the
// reference (most frequent component, ties to the smallest name — here the
// smallest id) and a memo keyed on the canonical multiset encoding of the
// conditioned formula. Same pivots at every node means the same float
// expression tree, so the result is bit-identical to the reference. The
// tree is recorded once per structure as its factoring program (program.go);
// each call replays it over the packed availabilities.
func (cs *CompiledStructure) Exact(avail map[string]float64) (float64, error) {
	if cs.validErr != nil {
		return 0, cs.validErr
	}
	pa, err := cs.packAvail(avail)
	if err != nil {
		return 0, err
	}
	return cs.exactPacked(pa), nil
}

// mostFrequentBit returns the component on the most path sets; ascending
// scan with strict improvement resolves ties to the smallest id, which is
// the smallest name — the reference's tie rule. counts is caller-owned scratch,
// one slot per component.
//
//upsim:hotpath
func mostFrequentBit(f [][]bitset, counts []int32) int32 {
	for i := range counts {
		counts[i] = 0
	}
	for _, sets := range f {
		for _, ps := range sets {
			for w, word := range ps {
				for word != 0 {
					counts[w<<6+bits.TrailingZeros64(word)]++
					word &= word - 1
				}
			}
		}
	}
	best, bestN := int32(0), int32(-1)
	for i, cnt := range counts {
		if cnt > bestN {
			best, bestN = int32(i), cnt
		}
	}
	return best
}

// conditionBits is the reference's formula.condition on bitsets; the constant return
// has the same meaning (0 false, 1 true, -1 use formula). Output slices and
// reduced sets come from the context arenas and stay valid until the
// context is released; unconditioned sets are shared with the input.
//
//upsim:hotpath
func conditionBits(f [][]bitset, c int32, up bool, ctx *exactCtx) ([][]bitset, int) {
	w, bit := int(c>>6), uint64(1)<<(uint(c)&63)
	out := ctx.ffs.alloc(len(f))
	for _, sets := range f {
		newSets := ctx.fs.alloc(len(sets))
		satisfied := false
		for _, ps := range sets {
			switch {
			case ps[w]&bit == 0:
				newSets = append(newSets, ps)
			case up:
				reduced := ctx.ar.alloc(len(ps))
				copy(reduced, ps)
				reduced[w] &^= bit
				empty := true
				for _, x := range reduced {
					if x != 0 {
						empty = false
						break
					}
				}
				if empty {
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
			continue
		}
		if len(newSets) == 0 {
			return nil, 0
		}
		out = append(out, newSets)
	}
	if len(out) == 0 {
		return nil, 1
	}
	return out, -1
}

// WhatIf computes the exact availability with the given components forced
// up or down (see ServiceStructure.WhatIf). A forced component must be a
// key of the availability map; forcing a component that is in the map but
// not in the structure is a no-op. The map is validated as given, before
// anything is forced, so an out-of-range availability is an error even
// for a forced component.
func (cs *CompiledStructure) WhatIf(avail map[string]float64, forced map[string]bool) (float64, error) {
	for c := range forced {
		if _, ok := avail[c]; !ok {
			return 0, fmt.Errorf(errFmtForcedNotInStruct, c)
		}
	}
	if cs.validErr != nil {
		return 0, cs.validErr
	}
	pa, err := cs.packAvail(avail)
	if err != nil {
		return 0, err
	}
	for c, up := range forced {
		id, ok := cs.index[c]
		if !ok {
			continue
		}
		if up {
			pa[id] = 1
		} else {
			pa[id] = 0
		}
	}
	return cs.exactPacked(pa), nil
}

// Importances returns, for every component in id order (the sorted order of
// Components), the exact service availability with that component forced up
// (up[i]) and forced down (down[i]), from which BirnbaumFussellVesely
// derives both importance measures for every component at once. The
// availability map is packed once and each component costs two factorings.
func (cs *CompiledStructure) Importances(avail map[string]float64) (up, down []float64, err error) {
	if cs.validErr != nil {
		return nil, nil, cs.validErr
	}
	pa, err := cs.packAvail(avail)
	if err != nil {
		return nil, nil, err
	}
	up = make([]float64, len(pa))
	down = make([]float64, len(pa))
	cs.importances(pa, up, down)
	return up, down, nil
}

// BirnbaumFussellVesely returns the Birnbaum and Fussell–Vesely importance
// of every component in id order, from one Importances pass; base is the
// exact service availability (Exact).
//
// Birnbaum importance is the partial derivative of the exact service
// availability with respect to the component's availability,
// A(service | comp up) − A(service | comp down): it ranks which UPSIM
// component matters most for the specific user perspective, the "quick
// overview on where the service problem might be caused" of the paper's
// conclusion, made quantitative. Fussell–Vesely importance is the fraction
// of the service unavailability attributable to failures involving the
// component,
//
//	FV_i = (Q_sys − Q_sys|A_i=1) / Q_sys
//
// where Q is the unavailability; it is 0 for every component of a perfect
// system (base = 1). A component with FV close to 1 is involved in
// essentially every user-visible outage.
func (cs *CompiledStructure) BirnbaumFussellVesely(avail map[string]float64, base float64) (birnbaum, fussellVesely []float64, err error) {
	up, down, err := cs.Importances(avail)
	if err != nil {
		return nil, nil, err
	}
	// down becomes the Birnbaum vector and up the Fussell–Vesely one.
	qSys := 1 - base
	for i, u := range up {
		down[i] = u - down[i]
		up[i] = 0
		if qSys != 0 { // a perfect system attributes no unavailability
			up[i] = ((1 - base) - (1 - u)) / qSys
		}
	}
	return down, up, nil
}
