package depend

// Bit-sliced Monte Carlo on math/rand's stream (DESIGN.md §10). The
// reference sampler (oracle_test.go) draws rand.Float64() < a once per
// component, in sorted component order, sample after sample, and evaluates
// the structure function per sample. The compiled sampler draws the
// identical stream and the identical decisions, but packs them 64 samples to a word per
// component and evaluates the structure function on whole words: AND over
// the members of a path set, OR over an atomic service's path sets, AND
// over atomic services. Three facts make the stream identical without an
// interface call per draw:
//
//   - math/rand's source is an additive lagged Fibonacci generator: after
//     its first mcLag outputs, y[n] = y[n−607] + y[n−273] mod 2^64. The
//     sampler takes those first outputs from a stdlib source seeded exactly
//     as rand.NewSource(seed) would be, then continues the recurrence
//     inline on its own ring, with no table copied from the stdlib.
//   - rand.Float64 is float64(Int63())/2^63, redrawn while that is 1, and
//     Int63 is the source output with its top bit cleared.
//   - Dividing by 2^63 is exact, so Float64() < p holds exactly when
//     float64(Int63()) < p·2^63, and p·2^63 is exact too. Conversion to
//     float64 is monotone, so that test is Int63() < mcThreshold(p), and
//     the discarded draws are those at or above mcRedraw.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// The lags of math/rand's lagged Fibonacci source.
const (
	mcLag = 607
	mcTap = 273
)

// mcRedraw is the least Int63 value that float64 rounds to 2^63, the draw
// rand.Float64 discards: floats below 2^63 are 2^10 apart, and the midpoint
// 2^63−2^9 rounds to even, which is up.
const mcRedraw = 1<<63 - 1<<9

// mcThreshold returns the least Int63 value x with float64(x) >= p·2^63, so
// that an undiscarded draw x accepts, x < mcThreshold(p), exactly when
// float64(x) < p·2^63, which is rand.Float64() < p. Conversion to float64
// is monotone, so bisection finds the boundary.
func mcThreshold(p float64) uint64 {
	t := p * (1 << 63)
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid) >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// lfgRing holds the last mcLag outputs of the stream, y[n] at n mod mcLag.
type lfgRing [mcLag]uint64

// refill advances the ring by mcLag outputs in place. Entry k needs
// y[n−273]: for k < mcTap that is the previous round's entry k+334, not yet
// overwritten; for k >= mcTap it is this round's entry k−273, already
// written.
//
//upsim:hotpath once per mcLag draws
func (r *lfgRing) refill() {
	for k := 0; k < mcTap; k++ {
		r[k] += r[k+mcLag-mcTap]
	}
	for k := mcTap; k < mcLag; k++ {
		r[k] += r[k-mcTap]
	}
}

// mcScratch is the pooled sampler state: a stdlib source, reseeded per
// call, that yields the stream's first mcLag outputs; the ring continuing
// it; and per component, the acceptance threshold and the word of 64
// sampled states.
type mcScratch struct {
	src  rand.Source64
	ring lfgRing
	thr  []uint64 // mcThreshold per component
	up   []uint64
}

// mcPool recycles sampler state across every compiled structure, so a
// Monte Carlo run allocates nothing however many samples it draws.
var mcPool = sync.Pool{New: func() any {
	return &mcScratch{src: rand.NewSource(0).(rand.Source64)}
}}

// getMCScratch returns pooled sampler state sized for n components.
func getMCScratch(n int) *mcScratch {
	sc := mcPool.Get().(*mcScratch)
	if cap(sc.thr) < n {
		sc.thr = make([]uint64, n)
		sc.up = make([]uint64, n)
	}
	sc.thr, sc.up = sc.thr[:n], sc.up[:n]
	return sc
}

func putMCScratch(sc *mcScratch) { mcPool.Put(sc) }

// MonteCarlo estimates the service availability by sampling component
// states (see ServiceStructure.MonteCarlo) and returns the estimate and its
// standard error. It makes the reference sampler's draws and per-sample
// decisions, so both figures equal the reference's exactly per seed.
func (cs *CompiledStructure) MonteCarlo(avail map[string]float64, samples int, seed int64) (est, stderr float64, err error) {
	if cs.validErr != nil {
		return 0, 0, cs.validErr
	}
	pa, err := cs.packAvail(avail)
	if err != nil {
		return 0, 0, err
	}
	if samples < 1 {
		return 0, 0, fmt.Errorf(errFmtMonteCarloSamples, samples)
	}
	sc := getMCScratch(len(pa))
	good := cs.sample(sc, pa, samples, seed)
	putMCScratch(sc)
	p := float64(good) / float64(samples)
	return p, math.Sqrt(p * (1 - p) / float64(samples)), nil
}

// sample draws n samples of the stream seeded with seed and counts those in
// which the service works.
func (cs *CompiledStructure) sample(sc *mcScratch, pa []float64, n int, seed int64) int {
	for i, p := range pa {
		sc.thr[i] = mcThreshold(p)
	}
	sc.src.Seed(seed)
	for k := range sc.ring {
		sc.ring[k] = sc.src.Uint64()
	}
	pos, good := 0, 0
	for base := 0; base < n; base += 64 {
		m := min(64, n-base)
		pos = sc.fill(m, pos)
		good += bits.OnesCount64(cs.evalWord(sc.up) & (^uint64(0) >> uint(64-m)))
	}
	return good
}

// fill draws m <= 64 samples into bits 0..m−1 of the component words,
// reading the stream from ring position pos, and returns the position after
// the last draw.
//
//upsim:hotpath the Monte Carlo draw loop
func (sc *mcScratch) fill(m, pos int) int {
	thr, up, ring := sc.thr, sc.up[:len(sc.thr)], &sc.ring
	clear(up)
	for s := 0; s < m; s++ {
		bit := uint64(1) << uint(s)
		for i, t := range thr {
			for {
				if pos == mcLag {
					ring.refill()
					pos = 0
				}
				x := ring[pos] & (1<<63 - 1)
				pos++
				if x < mcRedraw {
					if x < t {
						up[i] |= bit
					}
					break
				}
			}
		}
	}
	return pos
}

// evalWord evaluates the structure function on 64 samples at once: bit s
// of up[c] is component c's state in sample s, and bit s of the result is
// whether the service works in sample s.
//
//upsim:hotpath once per 64 Monte Carlo samples
func (cs *CompiledStructure) evalWord(up []uint64) uint64 {
	works := ^uint64(0)
	for _, a := range cs.atomics {
		any := uint64(0)
		for _, set := range a.sets {
			all := ^uint64(0)
			for w, word := range set {
				for word != 0 {
					all &= up[w<<6+bits.TrailingZeros64(word)]
					word &= word - 1
				}
			}
			any |= all
		}
		works &= any
	}
	return works
}
