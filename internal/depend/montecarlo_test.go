package depend

import (
	"fmt"
	"math/rand"
	"testing"

	"upsim/internal/testutil"
)

// TestLFGRingContinuesSource checks the stream fact the sampler rests on:
// after the first mcLag outputs of a stdlib source, refilling the ring in
// place yields exactly the source's next outputs.
func TestLFGRingContinuesSource(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, -7, 0} {
		src := rand.NewSource(seed).(rand.Source64)
		var ring lfgRing
		for k := range ring {
			ring[k] = src.Uint64()
		}
		for n := 0; n < 10*mcLag; n++ {
			if n%mcLag == 0 {
				ring.refill()
			}
			if got, want := ring[n%mcLag], src.Uint64(); got != want {
				t.Fatalf("seed %d: output %d after the first %d is %#x, source %#x", seed, n, mcLag, got, want)
			}
		}
	}
}

// TestMCDrawPredicateEdges pins the integer form of the draw at its edges:
// Int63 values that float64 rounds to 2^63 are discarded, p=0 never
// accepts, p=1 always accepts, and around every threshold the integer test
// agrees with rand.Float64's float test.
func TestMCDrawPredicateEdges(t *testing.T) {
	const two63 = float64(1 << 63)
	for _, x := range []uint64{mcRedraw - 1<<10, mcRedraw - 1, mcRedraw, mcRedraw + 1, 1<<63 - 1} {
		rounds := float64(int64(x)) == two63
		if discard := x >= mcRedraw; discard != rounds {
			t.Errorf("Int63 %#x: discarded %v, rounds to 2^63 %v", x, discard, rounds)
		}
	}
	if thr := mcThreshold(0); thr != 0 {
		t.Errorf("mcThreshold(0) = %d, want 0: p=0 must never accept", thr)
	}
	if thr := mcThreshold(1); thr < mcRedraw {
		t.Errorf("mcThreshold(1) = %#x below mcRedraw: p=1 must accept every undiscarded draw", thr)
	}
	ps := []float64{0, 5e-324, 1e-300, 0.25, 0.5, 0.9, 0.999, 1 - 1e-16, 1}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		thr := mcThreshold(p)
		for _, x := range []uint64{0, 1, thr - 2, thr - 1, thr, thr + 1, thr + 1024, mcRedraw - 1} {
			x &= 1<<63 - 1
			if x >= mcRedraw {
				continue
			}
			if got, want := x < thr, float64(int64(x)) < p*two63; got != want {
				t.Fatalf("p=%v Int63 %#x: integer test %v, float test %v", p, x, got, want)
			}
		}
	}
}

// TestMCDrawMatchesFloat64 replays a stdlib source both ways: one
// rand.Float64() < p per draw on a rand.Rand, and the sampler's integer
// test with discards on a twin source's raw outputs.
func TestMCDrawMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	raw := rand.NewSource(77).(rand.Source64)
	pick := rand.New(rand.NewSource(78))
	for i := 0; i < 200000; i++ {
		p := pick.Float64()
		want := rng.Float64() < p
		x := raw.Uint64() & (1<<63 - 1)
		for x >= mcRedraw {
			x = raw.Uint64() & (1<<63 - 1)
		}
		if got := x < mcThreshold(p); got != want {
			t.Fatalf("draw %d, p=%v: sampler %v, rand.Float64 %v", i, p, got, want)
		}
	}
}

// TestMCFillDiscardedDraw plants discarded draws in the ring, one of them
// at the ring's end, and checks fill against a draw-at-a-time reference
// over the same stream for three 64-sample words, which cross the ring's
// end. Real streams discard about one draw in 2^54, too rarely for the
// stream-identity tests to meet one.
func TestMCFillDiscardedDraw(t *testing.T) {
	const comps = 5
	for _, at := range []int{0, 3, 7, 300, mcLag - 3, mcLag - 1} {
		sc := getMCScratch(comps)
		rng := rand.New(rand.NewSource(int64(at)))
		for k := range sc.ring {
			sc.ring[k] = rng.Uint64()
		}
		sc.ring[at] = 1<<63 - 1 // rounds to 2^63
		sc.ring[(at+2)%mcLag] = mcRedraw | 1<<63
		for i := range sc.thr {
			sc.thr[i] = mcThreshold(0.3 + 0.1*float64(i))
		}

		ref, refPos := sc.ring, 0
		next := func() uint64 {
			for {
				if refPos == mcLag {
					ref.refill()
					refPos = 0
				}
				x := ref[refPos] & (1<<63 - 1)
				refPos++
				if x < mcRedraw {
					return x
				}
			}
		}
		want := make([]uint64, comps)
		pos := 0
		for word := 0; word < 3; word++ {
			clear(want)
			for s := 0; s < 64; s++ {
				for i, thr := range sc.thr {
					if next() < thr {
						want[i] |= 1 << uint(s)
					}
				}
			}
			pos = sc.fill(64, pos)
			for i := range want {
				if sc.up[i] != want[i] {
					t.Fatalf("discard at %d, word %d, component %d: fill %#x, reference %#x", at, word, i, sc.up[i], want[i])
				}
			}
			if pos != refPos {
				t.Fatalf("discard at %d, word %d: fill ends at ring position %d, reference %d", at, word, pos, refPos)
			}
		}
		putMCScratch(sc)
	}
}

// wideStructure is a structure of n components in series, one atomic
// service per pair: wider than the generator's ring, so every sample
// crosses the ring's end.
func wideStructure(n int) (*ServiceStructure, map[string]float64) {
	s := &ServiceStructure{}
	avail := map[string]float64{}
	for i := 0; i < n; i += 2 {
		c1, c2 := fmt.Sprintf("w%04d", i), fmt.Sprintf("w%04d", i+1)
		s.AtomicServices = append(s.AtomicServices, AtomicStructure{
			Name:     fmt.Sprintf("wide%d", i/2),
			PathSets: []PathSet{{c1}, {c2}},
		})
		avail[c1], avail[c2] = 0.5, 0.9
	}
	return s, avail
}

// TestMonteCarloStreamIdentity pins the bit-sliced sampler to the oracle
// per-sample loop: estimate and standard error equal (==) over random
// structures, seeds including 0 and negative ones, and sample counts on
// both sides of a 64-sample word and of the 607-word ring.
func TestMonteCarloStreamIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	type tc struct {
		s     *ServiceStructure
		avail map[string]float64
	}
	var cases []tc
	for i := 0; i < 6; i++ {
		s, avail := randomStructure(rng)
		cases = append(cases, tc{s, avail})
	}
	wide, wideAvail := wideStructure(700)
	seeds := []int64{1, 2, 42, -7, 0}
	samples := []int{1, 63, 64, 65, 607, 20000, 100000}
	if testing.Short() {
		samples = samples[:5]
	}
	check := func(s *ServiceStructure, avail map[string]float64, seed int64, n int) {
		t.Helper()
		want, wantSE, err := oracleMonteCarlo(s, avail, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSE, err := Compile(s).MonteCarlo(avail, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotSE != wantSE {
			t.Fatalf("%d components, seed %d, %d samples: compiled %v±%v, oracle %v±%v",
				len(avail), seed, n, got, gotSE, want, wantSE)
		}
	}
	for _, c := range cases {
		for _, seed := range seeds {
			for _, n := range samples {
				check(c.s, c.avail, seed, n)
			}
		}
	}
	for _, seed := range seeds {
		for _, n := range []int{1, 65, 1000} {
			check(wide, wideAvail, seed, n)
		}
	}
}

// montecarloAllocCeiling is the allocation count of one compiled Monte
// Carlo run on USI before the sampler was pooled, when every run built its
// own rand source and sample vector; the pooled sampler must not exceed it.
const montecarloAllocCeiling = 3

// TestMonteCarloAllocs checks that the sampler's allocations do not grow
// with the sample count and stay within the unpooled count.
func TestMonteCarloAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; the guard asserts exact counts")
	}
	st, avail, err := fromResult(usiResult(t), ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	cs := Compile(st)
	run := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := cs.MonteCarlo(avail, n, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(64), run(100000)
	if small != large {
		t.Errorf("MonteCarlo allocates %.0f objects at 64 samples, %.0f at 100,000", small, large)
	}
	if large > montecarloAllocCeiling {
		t.Errorf("MonteCarlo allocates %.0f objects per run, ceiling %d", large, montecarloAllocCeiling)
	}
}
