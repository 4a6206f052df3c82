package depend

// Packed memoisation for Shannon factoring (DESIGN.md §14). The legacy memo
// keyed the conditioned formula by a canonical byte string — per node it
// built one string per path set, sorted them, concatenated per-atomic
// segments and hashed the result into a Go map, so the deepest §VII
// recursion paid a string build and map-string churn at every node. The
// replacement packs the same canonical multiset encoding into []uint64 words
// held in an append-only arena and probes an open-addressing table, so a
// steady-state factoring performs zero allocations: keys are staged in
// reusable scratch, copied into the arena only on a miss, and the table,
// arena and scratch are all pooled package-wide, across compiled structures.
//
// Key layout, per formula:
//
//	segment(atomic) = [ setCount ][ set₀ words ]…[ setₙ₋₁ words ]
//
// with the sets of an atomic sorted word-lexicographically and the atomic
// segments themselves sorted word-lexicographically (ties to the shorter
// segment). Any canonical total order induces the same equivalence classes
// as the legacy byte-string key — equal multisets of set multisets — so memo
// hits coincide node for node and the factored float expression tree, hence
// the result, stays bit-identical to the legacy engine.

import "sync"

// sliceChunk is the block size (in elements) of the formula slice arenas.
const sliceChunk = 1024

// sliceArena bump-allocates empty slices with a caller-chosen capacity from
// chunked blocks, recycled per analysis like bitArena.
type sliceArena[T any] struct {
	blocks [][]T
	bi     int
	off    int
}

//upsim:hotpath
func (a *sliceArena[T]) reset() { a.bi, a.off = 0, 0 }

// alloc returns a zero-length slice with the given capacity; appends within
// that capacity stay inside the arena block.
//
//upsim:hotpath
func (a *sliceArena[T]) alloc(capN int) []T {
	if capN == 0 {
		return nil
	}
	for {
		if a.bi == len(a.blocks) {
			n := sliceChunk
			if capN > n {
				n = capN
			}
			a.blocks = append(a.blocks, make([]T, n))
		}
		if blk := a.blocks[a.bi]; a.off+capN <= len(blk) {
			s := blk[a.off : a.off : a.off+capN]
			a.off += capN
			return s
		}
		a.bi++
		a.off = 0
	}
}

// memoEntry is one open-addressing slot: the key lives in memoTable.words
// at [off, off+klen).
type memoEntry struct {
	hash uint64
	val  float64
	off  int32
	klen int32
	used bool
}

// memoTable is an open-addressing (linear probe, power-of-two) hash table
// from packed []uint64 keys to factoring results. Lookups allocate nothing;
// inserts append the key words to an arena whose offsets stay valid across
// growth.
type memoTable struct {
	entries []memoEntry
	mask    uint64
	n       int
	words   []uint64 // append-only key arena
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashWords is FNV-1a over whole words.
//
//upsim:hotpath
func hashWords(key []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, w := range key {
		h ^= w
		h *= fnvPrime
	}
	return h
}

func (t *memoTable) reset() {
	if t.entries == nil {
		t.entries = make([]memoEntry, 64)
		t.mask = 63
	} else {
		clear(t.entries)
	}
	t.n = 0
	t.words = t.words[:0]
}

//upsim:hotpath one probe sequence per factoring node
func (t *memoTable) lookup(key []uint64, h uint64) (float64, bool) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := &t.entries[i]
		if !e.used {
			return 0, false
		}
		if e.hash != h || int(e.klen) != len(key) {
			continue
		}
		kw := t.words[e.off : int(e.off)+len(key)]
		match := true
		for j, w := range key {
			if kw[j] != w {
				match = false
				break
			}
		}
		if match {
			return e.val, true
		}
	}
}

// reserve copies the staged key into the arena before the factoring
// recursion reuses the staging buffer; the returned offset stays valid
// because the arena only appends.
func (t *memoTable) reserve(key []uint64) int32 {
	off := int32(len(t.words))
	t.words = append(t.words, key...)
	return off
}

// insert records the value for a key previously reserved. Keys are unique by
// construction — a miss precedes every reserve, and a conditioned subformula
// is always strictly smaller than its parent — so probing stops at the first
// free slot.
func (t *memoTable) insert(h uint64, off, klen int32, val float64) {
	if (t.n+1)*4 > len(t.entries)*3 {
		t.grow()
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		if e := &t.entries[i]; !e.used {
			*e = memoEntry{hash: h, val: val, off: off, klen: klen, used: true}
			t.n++
			return
		}
	}
}

func (t *memoTable) grow() {
	old := t.entries
	t.entries = make([]memoEntry, 2*len(old))
	t.mask = uint64(len(t.entries) - 1)
	for i := range old {
		if !old[i].used {
			continue
		}
		for j := old[i].hash & t.mask; ; j = (j + 1) & t.mask {
			if !t.entries[j].used {
				t.entries[j] = old[i]
				break
			}
		}
	}
}

// exactCtx is the pooled per-factoring scratch: the memo table, the bitset
// and slice arenas backing conditioned formulas, the key staging buffers
// and the nodes of the program being recorded. One context serves one
// recordProgram call at a time.
type exactCtx struct {
	memo memoTable
	ar   bitArena           // reduced path sets from conditioning
	fs   sliceArena[bitset] // per-atomic set slices
	ffs  sliceArena[[]bitset]

	counts []int32 // mostFrequentBit scratch, one per component

	keyTmp   []uint64 // staged canonical key
	segBuf   []uint64 // unsorted per-atomic segments
	segStart []int32
	segLen   []int32
	setIdx   []int32 // per-atomic set sort
	atomIdx  []int32 // atomic segment sort

	prog []factorNode // recorded nodes, copied out at the end
}

// exactPool recycles factoring contexts across every compiled structure, so
// the first factoring of a freshly compiled structure reuses grown arenas
// and memo tables instead of growing its own.
var exactPool = sync.Pool{New: func() any { return new(exactCtx) }}

// maxPooledMemoSlots caps the memo table a pooled context may carry: reset
// clears the whole table, so one outsized structure must not make every
// later factoring pay for its table. A context that grew past the cap is
// dropped instead of pooled. A campus-sized UPSIM (24 components) factors
// within 128 slots; the cap (128 KB of entries) is 32 times that.
const maxPooledMemoSlots = 1 << 12

// getExactCtx returns a reset context whose counts scratch spans n
// components.
func getExactCtx(n int) *exactCtx {
	ctx := exactPool.Get().(*exactCtx)
	ctx.memo.reset()
	ctx.ar.reset()
	ctx.fs.reset()
	ctx.ffs.reset()
	if cap(ctx.counts) < n {
		ctx.counts = make([]int32, n)
	}
	ctx.counts = ctx.counts[:n]
	return ctx
}

func putExactCtx(ctx *exactCtx) {
	if len(ctx.memo.entries) > maxPooledMemoSlots {
		return
	}
	exactPool.Put(ctx)
}

// buildKey stages the canonical packed key for f into ctx.keyTmp and returns
// its hash. All scratch comes from the context; steady state allocates
// nothing.
//
//upsim:hotpath once per factoring node
func (ctx *exactCtx) buildKey(f [][]bitset) uint64 {
	ctx.segBuf = ctx.segBuf[:0]
	ctx.segStart = ctx.segStart[:0]
	ctx.segLen = ctx.segLen[:0]
	for _, sets := range f {
		start := int32(len(ctx.segBuf))
		ctx.segBuf = append(ctx.segBuf, uint64(len(sets)))
		idx := ctx.setIdx[:0]
		for i := range sets {
			idx = append(idx, int32(i))
		}
		sortSetIdx(sets, idx)
		ctx.setIdx = idx
		for _, si := range idx {
			ctx.segBuf = append(ctx.segBuf, sets[si]...)
		}
		ctx.segStart = append(ctx.segStart, start)
		ctx.segLen = append(ctx.segLen, int32(len(ctx.segBuf))-start)
	}
	ai := ctx.atomIdx[:0]
	for i := range f {
		ai = append(ai, int32(i))
	}
	sortSegIdx(ctx.segBuf, ctx.segStart, ctx.segLen, ai)
	ctx.atomIdx = ai
	key := ctx.keyTmp[:0]
	for _, a := range ai {
		s, l := ctx.segStart[a], ctx.segLen[a]
		key = append(key, ctx.segBuf[s:s+l]...)
	}
	ctx.keyTmp = key
	return hashWords(key)
}

// lessSets orders equal-width bitsets word-lexicographically.
//
//upsim:hotpath
func lessSets(sets []bitset, a, b int32) bool {
	x, y := sets[a], sets[b]
	for w := range x {
		if x[w] != y[w] {
			return x[w] < y[w]
		}
	}
	return false
}

// sortSetIdx heapsorts set indices in place — sort.Slice would allocate its
// reflect-based swapper per call.
//
//upsim:hotpath
func sortSetIdx(sets []bitset, idx []int32) {
	n := len(idx)
	for i := n/2 - 1; i >= 0; i-- {
		siftSets(sets, idx, i, n)
	}
	for i := n - 1; i > 0; i-- {
		idx[0], idx[i] = idx[i], idx[0]
		siftSets(sets, idx, 0, i)
	}
}

//upsim:hotpath
func siftSets(sets []bitset, idx []int32, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && lessSets(sets, idx[child], idx[child+1]) {
			child++
		}
		if !lessSets(sets, idx[root], idx[child]) {
			return
		}
		idx[root], idx[child] = idx[child], idx[root]
		root = child
	}
}

// lessSegs orders atomic segments word-lexicographically, ties to the
// shorter segment.
//
//upsim:hotpath
func lessSegs(buf []uint64, start, ln []int32, a, b int32) bool {
	sa, la := start[a], ln[a]
	sb, lb := start[b], ln[b]
	n := la
	if lb < n {
		n = lb
	}
	for i := int32(0); i < n; i++ {
		if buf[sa+i] != buf[sb+i] {
			return buf[sa+i] < buf[sb+i]
		}
	}
	return la < lb
}

//upsim:hotpath
func sortSegIdx(buf []uint64, start, ln []int32, idx []int32) {
	n := len(idx)
	for i := n/2 - 1; i >= 0; i-- {
		siftSegs(buf, start, ln, idx, i, n)
	}
	for i := n - 1; i > 0; i-- {
		idx[0], idx[i] = idx[i], idx[0]
		siftSegs(buf, start, ln, idx, 0, i)
	}
}

//upsim:hotpath
func siftSegs(buf []uint64, start, ln []int32, idx []int32, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && lessSegs(buf, start, ln, idx[child], idx[child+1]) {
			child++
		}
		if !lessSegs(buf, start, ln, idx[root], idx[child]) {
			return
		}
		idx[root], idx[child] = idx[child], idx[root]
		root = child
	}
}
