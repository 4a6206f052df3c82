package depend

import (
	"testing"

	"upsim/internal/testutil"
)

// memoStructure builds a structure with enough shared components that the
// factoring recursion exercises memo hits, growth and collisions.
func memoStructure() *ServiceStructure {
	s := &ServiceStructure{}
	s.AtomicServices = []AtomicStructure{
		{Name: "a", PathSets: []PathSet{{"c1", "c2"}, {"c3", "c4"}, {"c5"}}},
		{Name: "b", PathSets: []PathSet{{"c2", "c3"}, {"c1", "c5"}}},
		{Name: "c", PathSets: []PathSet{{"c4", "c5"}, {"c1", "c3"}}},
	}
	return s
}

func memoAvail() map[string]float64 {
	return map[string]float64{"c1": 0.9, "c2": 0.95, "c3": 0.99, "c4": 0.97, "c5": 0.93}
}

// TestExactPackedMatchesLegacy pins the packed-memo factoring bit-identical
// to the legacy map engine on a structure with real memo sharing.
func TestExactPackedMatchesLegacy(t *testing.T) {
	s := memoStructure()
	avail := memoAvail()
	want, err := s.Exact(avail)
	if err != nil {
		t.Fatalf("legacy Exact: %v", err)
	}
	got, err := Compile(s).Exact(avail)
	if err != nil {
		t.Fatalf("compiled Exact: %v", err)
	}
	if got != want {
		t.Fatalf("compiled Exact = %v, legacy = %v (must be bit-identical)", got, want)
	}
}

// TestExactPackedZeroAllocsWarm asserts the tentpole target: once the pooled
// context's arenas and memo table have grown to the structure's working set,
// a full factoring allocates nothing.
func TestExactPackedZeroAllocsWarm(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts exact counts")
	}
	cs := Compile(memoStructure())
	pa, err := cs.packAvail(memoAvail())
	if err != nil {
		t.Fatalf("packAvail: %v", err)
	}
	cs.exactPacked(pa) // warm the pool
	allocs := testing.AllocsPerRun(50, func() { cs.exactPacked(pa) })
	if allocs != 0 {
		t.Fatalf("warm exactPacked allocates %.1f objects per run, want 0", allocs)
	}
}

// TestMemoTableLookupNoAllocs asserts no per-lookup key allocation: probing
// a populated table with staged keys is allocation-free, hit or miss.
func TestMemoTableLookupNoAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts exact counts")
	}
	var tab memoTable
	tab.reset()
	keys := make([][]uint64, 200)
	for i := range keys {
		keys[i] = []uint64{uint64(i), uint64(i * 3), uint64(i % 7)}
		h := hashWords(keys[i])
		off := tab.reserve(keys[i])
		tab.insert(h, off, int32(len(keys[i])), float64(i))
	}
	miss := []uint64{1 << 40, 2, 3}
	allocs := testing.AllocsPerRun(100, func() {
		for i, k := range keys {
			v, ok := tab.lookup(k, hashWords(k))
			if !ok || v != float64(i) {
				panic("lookup lost an entry")
			}
		}
		if _, ok := tab.lookup(miss, hashWords(miss)); ok {
			panic("phantom hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("memo lookups allocate %.1f objects per run, want 0", allocs)
	}
}

// TestMemoTableCollisionSafety forces every key into one probe chain (equal
// hashes) and checks full-key comparison still distinguishes them.
func TestMemoTableCollisionSafety(t *testing.T) {
	var tab memoTable
	tab.reset()
	const h = uint64(12345) // deliberately identical for all keys
	keys := [][]uint64{{1}, {2}, {1, 2}, {2, 1}, {0, 0, 0}}
	for i, k := range keys {
		off := tab.reserve(k)
		tab.insert(h, off, int32(len(k)), float64(i+1))
	}
	for i, k := range keys {
		v, ok := tab.lookup(k, h)
		if !ok || v != float64(i+1) {
			t.Fatalf("key %v: got (%v, %v), want (%v, true)", k, v, ok, float64(i+1))
		}
	}
	if _, ok := tab.lookup([]uint64{9}, h); ok {
		t.Fatal("lookup of absent key with colliding hash reported a hit")
	}
}

// TestMemoTableGrowth inserts past several doublings and verifies every
// entry survives rehash with its key offsets intact.
func TestMemoTableGrowth(t *testing.T) {
	var tab memoTable
	tab.reset()
	const n = 1000
	for i := 0; i < n; i++ {
		k := []uint64{uint64(i), ^uint64(i)}
		h := hashWords(k)
		off := tab.reserve(k)
		tab.insert(h, off, 2, float64(i))
	}
	if len(tab.entries) < n {
		t.Fatalf("table did not grow: %d slots for %d entries", len(tab.entries), n)
	}
	for i := 0; i < n; i++ {
		k := []uint64{uint64(i), ^uint64(i)}
		v, ok := tab.lookup(k, hashWords(k))
		if !ok || v != float64(i) {
			t.Fatalf("entry %d lost after growth: got (%v, %v)", i, v, ok)
		}
	}
	tab.reset()
	if _, ok := tab.lookup([]uint64{0, ^uint64(0)}, hashWords([]uint64{0, ^uint64(0)})); ok {
		t.Fatal("reset table still answers lookups")
	}
}

// TestBuildKeyCanonical checks the packed key is invariant under set and
// atomic permutation — the equivalence the memo relies on.
func TestBuildKeyCanonical(t *testing.T) {
	cs := Compile(memoStructure())
	ctx := getExactCtx(cs.NumComponents())
	defer putExactCtx(ctx)
	a := cs.atomics[0].sets
	b := cs.atomics[1].sets

	perm := func(f [][]bitset) []uint64 {
		ctx.buildKey(f)
		return append([]uint64(nil), ctx.keyTmp...)
	}
	k1 := perm([][]bitset{a, b})
	k2 := perm([][]bitset{b, a})
	k3 := perm([][]bitset{{a[2], a[0], a[1]}, b})
	if !equalWords(k1, k2) || !equalWords(k1, k3) {
		t.Fatalf("canonical key differs under permutation:\n%v\n%v\n%v", k1, k2, k3)
	}
	k4 := perm([][]bitset{a, a})
	if equalWords(k1, k4) {
		t.Fatal("distinct formulas share a key")
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPutExactCtxDropsOversizedMemo checks that a context whose memo table
// outgrew maxPooledMemoSlots is dropped, not recycled into every later
// factoring's reset.
func TestPutExactCtxDropsOversizedMemo(t *testing.T) {
	ctx := getExactCtx(4)
	ctx.memo.entries = make([]memoEntry, 2*maxPooledMemoSlots)
	ctx.memo.mask = uint64(len(ctx.memo.entries) - 1)
	putExactCtx(ctx)
	got := exactPool.Get().(*exactCtx)
	exactPool.Put(got)
	if got == ctx {
		t.Fatalf("a context with %d memo slots went back to the pool (cap %d)", len(ctx.memo.entries), maxPooledMemoSlots)
	}
}
