package depend

// Packed memoisation for Shannon factoring (DESIGN.md §14). The map-based
// reference (oracle_test.go) keys the conditioned formula by a canonical
// byte string — per node it builds one string per path set, sorts them,
// concatenates per-atomic segments and hashes the result into a Go map, so
// the deepest §VII recursion pays a string build and map-string churn at
// every node. The kernel packs the same canonical multiset encoding into []uint64 words
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
// as the reference's byte-string key — equal multisets of set multisets — so
// memo hits coincide node for node and the factored float expression tree,
// hence the result, stays bit-identical to the reference.

import (
	"slices"
	"sync"
)

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
		// Equal sets are equal words, so the unstable sort's tie order
		// cannot change the key.
		slices.SortFunc(idx, func(a, b int32) int { return slices.Compare(sets[a], sets[b]) })
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
	// Word-lexicographic, ties to the shorter segment.
	buf, start, ln := ctx.segBuf, ctx.segStart, ctx.segLen
	slices.SortFunc(ai, func(a, b int32) int {
		return slices.Compare(buf[start[a]:start[a]+ln[a]], buf[start[b]:start[b]+ln[b]])
	})
	ctx.atomIdx = ai
	key := ctx.keyTmp[:0]
	for _, a := range ai {
		s, l := ctx.segStart[a], ctx.segLen[a]
		key = append(key, ctx.segBuf[s:s+l]...)
	}
	ctx.keyTmp = key
	return hashWords(key)
}
