package depend

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// withinOneUlp reports a == b up to one unit in the last place. The
// algebraic kernels are designed to be bit-identical (same operation
// order), so this is the ISSUE's acceptance bound with no slack to spare.
func withinOneUlp(a, b float64) bool {
	return a == b || math.Nextafter(a, b) == b
}

// mapImportance is the map-based oracle of BirnbaumFussellVesely for one
// component, built from Exact and WhatIf: Birnbaum importance is the
// availability with c forced up minus that with c forced down, and
// Fussell–Vesely importance is ((1−base)−(1−up))/(1−base), 0 when base
// is 1.
func mapImportance(s *ServiceStructure, avail map[string]float64, c string) (birnbaum, fussellVesely float64, err error) {
	base, err := s.Exact(avail)
	if err != nil {
		return 0, 0, err
	}
	up, err := s.WhatIf(avail, map[string]bool{c: true})
	if err != nil {
		return 0, 0, err
	}
	down, err := s.WhatIf(avail, map[string]bool{c: false})
	if err != nil {
		return 0, 0, err
	}
	if qSys := 1 - base; qSys != 0 {
		fussellVesely = ((1 - base) - (1 - up)) / qSys
	}
	return up - down, fussellVesely, nil
}

// randomStructureNames builds a component universe that exercises the
// canonical ordering edge cases: plain names, names where one is a prefix
// of another, and link-style ids containing '#' (which sorts below ',' and
// used to distinguish joined-string from element-wise comparison).
func randomStructureNames(rng *rand.Rand, n int) []string {
	pool := []string{
		"a", "ab", "a#1", "b", "b--c#0", "b--c#1", "cache", "ca", "db", "d",
		"lb", "link#9", "net", "n0", "n00", "www",
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if n > len(pool) {
		for i := len(pool); i < n; i++ {
			pool = append(pool, fmt.Sprintf("x%03d", i))
		}
	}
	return pool[:n]
}

// randomStructure returns a random service structure (path sets in random
// order, duplicate-free within a set) and a full availability map.
func randomStructure(rng *rand.Rand) (*ServiceStructure, map[string]float64) {
	nComp := 2 + rng.Intn(12)
	comps := randomStructureNames(rng, nComp)
	s := &ServiceStructure{}
	nAtomic := 1 + rng.Intn(3)
	for ai := 0; ai < nAtomic; ai++ {
		a := AtomicStructure{Name: fmt.Sprintf("svc%d", ai)}
		nSets := 1 + rng.Intn(3)
		for si := 0; si < nSets; si++ {
			perm := rng.Perm(nComp)
			k := 1 + rng.Intn(4)
			if k > nComp {
				k = nComp
			}
			ps := make(PathSet, 0, k)
			for _, ci := range perm[:k] {
				ps = append(ps, comps[ci])
			}
			a.PathSets = append(a.PathSets, ps)
		}
		s.AtomicServices = append(s.AtomicServices, a)
	}
	avail := make(map[string]float64, nComp)
	for _, c := range comps {
		switch rng.Intn(10) {
		case 0:
			avail[c] = 0
		case 1:
			avail[c] = 1
		default:
			avail[c] = rng.Float64()
		}
	}
	return s, avail
}

// checkCompiledEquivalence runs every analysis on both kernels and fails on
// the first divergence: sets must be identical including order, algebraic
// probabilities within 1 ulp, Monte Carlo estimates (mcSamples draws from
// mcSeed) exactly equal, errors equal by message.
func checkCompiledEquivalence(t *testing.T, s *ServiceStructure, avail map[string]float64, mcSeed int64, mcSamples int) {
	t.Helper()
	cs := Compile(s)

	wantComps := s.Components()
	if got := cs.Components(); !reflect.DeepEqual(got, wantComps) {
		t.Fatalf("Components: compiled %v, legacy %v", got, wantComps)
	}

	checkErr := func(what string, legacy, compiled error) bool {
		t.Helper()
		switch {
		case legacy == nil && compiled == nil:
			return false
		case legacy == nil || compiled == nil || legacy.Error() != compiled.Error():
			t.Fatalf("%s: error mismatch: legacy %v, compiled %v", what, legacy, compiled)
		}
		return true
	}

	lc, lerr := s.MinimalCutSets(0)
	cc, cerr := cs.MinimalCutSets(0)
	if !checkErr("MinimalCutSets", lerr, cerr) && !reflect.DeepEqual(lc, cc) {
		t.Fatalf("MinimalCutSets: legacy %v, compiled %v", lc, cc)
	}

	lex, lerr := s.Exact(avail)
	cex, cerr := cs.Exact(avail)
	if !checkErr("Exact", lerr, cerr) && !withinOneUlp(lex, cex) {
		t.Fatalf("Exact: legacy %.17g, compiled %.17g", lex, cex)
	}

	lmc, lse, lerr := s.MonteCarlo(avail, mcSamples, mcSeed)
	cmc, cse, cerr := cs.MonteCarlo(avail, mcSamples, mcSeed)
	if !checkErr("MonteCarlo", lerr, cerr) && (lmc != cmc || lse != cse) {
		t.Fatalf("MonteCarlo: legacy %v±%v, compiled %v±%v", lmc, lse, cmc, cse)
	}

	// The per-component legacy importances against the compiled kernel's
	// one BirnbaumFussellVesely pass.
	birnbaum, fv, ierr := cs.BirnbaumFussellVesely(avail, cex)
	for i, c := range wantComps[:1] {
		lbi, lfv, lerr := mapImportance(s, avail, c)
		if !checkErr("Birnbaum", lerr, ierr) && !withinOneUlp(lbi, birnbaum[i]) {
			t.Fatalf("Birnbaum(%q): legacy %.17g, compiled %.17g", c, lbi, birnbaum[i])
		}
		if !checkErr("FussellVesely", lerr, ierr) && !withinOneUlp(lfv, fv[i]) {
			t.Fatalf("FussellVesely(%q): legacy %.17g, compiled %.17g", c, lfv, fv[i])
		}

		lwi, lerr := s.WhatIf(avail, map[string]bool{c: false})
		cwi, cerr := cs.WhatIf(avail, map[string]bool{c: false})
		if !checkErr("WhatIf", lerr, cerr) && !withinOneUlp(lwi, cwi) {
			t.Fatalf("WhatIf(%q down): legacy %.17g, compiled %.17g", c, lwi, cwi)
		}
	}
}

// TestCompiledEquivalenceProperty pins the compiled kernel to the legacy
// map implementation on random structures — the depend analogue of PR 4's
// CSR ≡ legacy proof.
func TestCompiledEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 200; i++ {
		s, avail := randomStructure(rng)
		checkCompiledEquivalence(t, s, avail, int64(len(avail))*7919+int64(len(s.AtomicServices)), 500)
		checkFusedAnalyses(t, s, avail)
	}
}

// TestCompiledEquivalenceCaseStudy runs the equivalence check on the
// paper's case-study-shaped fixtures used elsewhere in the package.
func TestCompiledEquivalenceCaseStudy(t *testing.T) {
	simpleS, simpleAv := simpleStructure()
	sharedS, sharedAv := sharedStructure()
	for _, tc := range []struct {
		name string
		s    *ServiceStructure
		av   map[string]float64
	}{
		{"simple", simpleS, simpleAv},
		{"shared", sharedS, sharedAv},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCompiledEquivalence(t, tc.s, tc.av, 1, 500)
		})
	}
}

// TestCompiledErrorParity checks that the compiled kernel reproduces the
// legacy error surfaces: invalid structures, missing availabilities,
// out-of-range probabilities, expansion limits, unknown components.
func TestCompiledErrorParity(t *testing.T) {
	s, av := sharedStructure()
	cs := Compile(s)

	sameErr := func(what string, legacy, compiled error) {
		t.Helper()
		if legacy == nil || compiled == nil || legacy.Error() != compiled.Error() {
			t.Fatalf("%s: legacy %v, compiled %v", what, legacy, compiled)
		}
	}

	// Invalid structure: the Validate error is preserved by Compile.
	bad := &ServiceStructure{AtomicServices: []AtomicStructure{{Name: "s"}}}
	cbad := Compile(bad)
	_, lerr := bad.MinimalCutSets(0)
	_, cerr := cbad.MinimalCutSets(0)
	sameErr("invalid structure", lerr, cerr)
	if cbad.Err() == nil {
		t.Fatalf("Err() should report the Validate failure")
	}

	// Missing availability.
	short := map[string]float64{"x": 0.9, "a": 0.8}
	_, lerr = s.Exact(short)
	_, cerr = cs.Exact(short)
	sameErr("missing avail", lerr, cerr)

	// Out-of-range probability.
	overAv := map[string]float64{"x": 0.9, "a": 1.5, "b": 0.8}
	_, lerr = s.Exact(overAv)
	_, cerr = cs.Exact(overAv)
	sameErr("bad prob", lerr, cerr)

	// Transversal limit.
	_, lerr = s.MinimalCutSets(1)
	_, cerr = cs.MinimalCutSets(1)
	sameErr("cutset limit", lerr, cerr)

	// Unknown component in WhatIf.
	_, lerr = s.WhatIf(av, map[string]bool{"ghost": true})
	_, cerr = cs.WhatIf(av, map[string]bool{"ghost": true})
	sameErr("WhatIf unknown", lerr, cerr)

	// Bad sample counts.
	_, _, lerr = s.MonteCarlo(av, 0, 1)
	_, _, cerr = cs.MonteCarlo(av, 0, 1)
	sameErr("MC samples", lerr, cerr)
}

// TestCompiledStructureWideUniverse exercises the multi-word bitset path
// (>64 components) that UPSIM-sized models never reach.
func TestCompiledStructureWideUniverse(t *testing.T) {
	s := &ServiceStructure{}
	avail := map[string]float64{}
	const n = 70
	// One two-component path set per atomic service: 70 components across 35
	// atomics keeps every expansion polynomial (a single path set has
	// singleton transversals) while every bitset spans two words.
	for i := 0; i < n; i += 2 {
		c1, c2 := fmt.Sprintf("w%03d", i), fmt.Sprintf("w%03d", i+1)
		s.AtomicServices = append(s.AtomicServices, AtomicStructure{
			Name:     fmt.Sprintf("wide%d", i/2),
			PathSets: []PathSet{{c1, c2}},
		})
		avail[c1] = 0.9
		avail[c2] = 0.99
	}
	checkCompiledEquivalence(t, s, avail, 1, 500)
	if cs := Compile(s); cs.words != 2 {
		t.Fatalf("structure spans %d words, want 2", cs.words)
	}
}

// FuzzCompiledKernel drives the equivalence check from a byte string: the
// fuzzer shapes the structure (component count, atomic/path-set layout) and
// the availability vector, and picks the Monte Carlo seed and sample count
// (1 to 4096, so every offset within a 64-sample word and within the
// generator's 607-word ring occurs). Mirrors pathdisc's
// FuzzCSRAgreesWithLegacy.
func FuzzCompiledKernel(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 1, 2, 50, 200, 128}, int64(1), uint16(499))
	f.Add([]byte{5, 1, 3, 0, 1, 2, 3, 4, 0, 255, 1, 9, 77}, int64(-7), uint16(63))
	f.Add([]byte{12, 2, 2, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 100}, int64(0), uint16(606))
	f.Fuzz(func(t *testing.T, data []byte, mcSeed int64, mcSamples uint16) {
		if len(data) < 4 {
			t.Skip()
		}
		pos := 0
		next := func() byte {
			b := data[pos%len(data)]
			pos++
			return b
		}
		nComp := 2 + int(next())%10
		comps := make([]string, nComp)
		for i := range comps {
			comps[i] = fmt.Sprintf("c%02d", i)
		}
		s := &ServiceStructure{}
		nAtomic := 1 + int(next())%3
		for ai := 0; ai < nAtomic; ai++ {
			a := AtomicStructure{Name: fmt.Sprintf("svc%d", ai)}
			nSets := 1 + int(next())%3
			for si := 0; si < nSets; si++ {
				k := 1 + int(next())%4
				seen := map[int]bool{}
				var ps PathSet
				for len(ps) < k {
					ci := int(next()) % nComp
					if seen[ci] {
						break // fuzzer chose a duplicate; keep the set short
					}
					seen[ci] = true
					ps = append(ps, comps[ci])
				}
				if len(ps) == 0 {
					ps = PathSet{comps[0]}
				}
				a.PathSets = append(a.PathSets, ps)
			}
			s.AtomicServices = append(s.AtomicServices, a)
		}
		avail := make(map[string]float64, nComp)
		for _, c := range comps {
			avail[c] = float64(next()) / 255
		}
		checkCompiledEquivalence(t, s, avail, mcSeed, 1+int(mcSamples)%4096)
		checkFusedAnalyses(t, s, avail)
	})
}

// checkFusedAnalyses pins the analysis pipeline's shortcuts to the public
// per-call API, exactly (==): the in-place RBD and fault-tree loops against
// the block and gate trees, Importances against per-component Birnbaum
// (WhatIf with the component up minus WhatIf with it down) and
// Fussell–Vesely (from Exact and WhatIf with the component up), and the
// factoring program against the recursion it was recorded from.
func checkFusedAnalyses(t *testing.T, s *ServiceStructure, avail map[string]float64) {
	t.Helper()
	rbd, err := s.ToRBD(avail)
	if err != nil {
		t.Fatalf("ToRBD: %v", err)
	}
	wantRBD, err := rbd.Availability()
	if err != nil {
		t.Fatalf("RBD Availability: %v", err)
	}
	if got := s.seriesParallel(avail); got != wantRBD {
		t.Fatalf("in-place RBD %.17g, ToRBD().Availability() %.17g", got, wantRBD)
	}
	ft, err := s.ToFaultTree(avail)
	if err != nil {
		t.Fatalf("ToFaultTree: %v", err)
	}
	topQ, err := ft.Probability()
	if err != nil {
		t.Fatalf("fault tree Probability: %v", err)
	}
	if got := 1 - s.topEventProbability(avail); got != 1-topQ {
		t.Fatalf("in-place fault tree %.17g, 1-ToFaultTree().Probability() %.17g", got, 1-topQ)
	}

	cs := Compile(s)
	base, err := cs.Exact(avail)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	up, down, err := cs.Importances(avail)
	if err != nil {
		t.Fatalf("Importances: %v", err)
	}
	checkProgramOracle(t, cs, avail, base, up, down)
	for i, c := range cs.Components() {
		cUp, err := cs.WhatIf(avail, map[string]bool{c: true})
		if err != nil {
			t.Fatalf("WhatIf(%q up): %v", c, err)
		}
		cDown, err := cs.WhatIf(avail, map[string]bool{c: false})
		if err != nil {
			t.Fatalf("WhatIf(%q down): %v", c, err)
		}
		if up[i]-down[i] != cUp-cDown {
			t.Fatalf("Importances Birnbaum(%q) = %.17g, WhatIf up−down %.17g", c, up[i]-down[i], cUp-cDown)
		}
		if got, want := fussellVesely(base, up[i]), fussellVesely(base, cUp); got != want {
			t.Fatalf("Importances Fussell–Vesely(%q) = %.17g, from WhatIf %.17g", c, got, want)
		}
	}
}

// fussellVesely is the Fussell–Vesely importance of a component from the
// exact service availability base and the availability up with the
// component forced up; a perfect system attributes no unavailability.
func fussellVesely(base, up float64) float64 {
	if base == 1 {
		return 0
	}
	return ((1 - base) - (1 - up)) / (1 - base)
}
