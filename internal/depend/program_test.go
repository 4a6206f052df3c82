package depend

import (
	"math/rand"
	"sync"
	"testing"
)

// exactOracle is the exact availability by the memoised factoring recursion
// itself, evaluated on every call as the kernel did before it recorded the
// recursion as a program. It is the program's test oracle.
func (cs *CompiledStructure) exactOracle(pa []float64) float64 {
	ctx := getExactCtx(len(cs.names))
	f := ctx.ffs.alloc(len(cs.atomics))
	for _, a := range cs.atomics {
		f = append(f, a.sets)
	}
	v := cs.factorBits(f, pa, ctx)
	putExactCtx(ctx)
	return v
}

// factorBits is recordBits computing values instead of recording nodes: the
// memo maps a conditioned formula to its value.
func (cs *CompiledStructure) factorBits(f [][]bitset, pa []float64, ctx *exactCtx) float64 {
	h := ctx.buildKey(f)
	if v, ok := ctx.memo.lookup(ctx.keyTmp, h); ok {
		return v
	}
	klen := int32(len(ctx.keyTmp))
	off := ctx.memo.reserve(ctx.keyTmp)
	c := mostFrequentBit(f, ctx.counts)
	a := pa[c]
	var up, down float64
	if fUp, konst := conditionBits(f, c, true, ctx); konst >= 0 {
		up = float64(konst)
	} else {
		up = cs.factorBits(fUp, pa, ctx)
	}
	if fDown, konst := conditionBits(f, c, false, ctx); konst >= 0 {
		down = float64(konst)
	} else {
		down = cs.factorBits(fDown, pa, ctx)
	}
	v := a*up + (1-a)*down
	ctx.memo.insert(h, off, klen, v)
	return v
}

// checkProgramOracle demands that every program evaluation equal the
// recursion exactly (==): the base value, each component's forced-up and
// forced-down pair from Importances, and WhatIf with the component down.
func checkProgramOracle(t *testing.T, cs *CompiledStructure, avail map[string]float64, base float64, up, down []float64) {
	t.Helper()
	pa, err := cs.packAvail(avail)
	if err != nil {
		t.Fatalf("packAvail: %v", err)
	}
	if want := cs.exactOracle(pa); base != want {
		t.Fatalf("program Exact %.17g, recursion %.17g", base, want)
	}
	for i, c := range cs.names {
		a := pa[i]
		pa[i] = 1
		wantUp := cs.exactOracle(pa)
		pa[i] = 0
		wantDown := cs.exactOracle(pa)
		pa[i] = a
		if up[i] != wantUp || down[i] != wantDown {
			t.Fatalf("program Importances(%q) = %.17g/%.17g, recursion %.17g/%.17g", c, up[i], down[i], wantUp, wantDown)
		}
		got, err := cs.WhatIf(avail, map[string]bool{c: false})
		if err != nil {
			t.Fatalf("WhatIf(%q down): %v", c, err)
		}
		if got != wantDown {
			t.Fatalf("program WhatIf(%q down) %.17g, recursion %.17g", c, got, wantDown)
		}
	}
}

// TestProgramShared checks that the program is a DAG of the memoised
// recursion: the USI structure factors into fewer nodes than a tree would
// need, and recording happens once per structure.
func TestProgramShared(t *testing.T) {
	st, avail, err := fromResult(usiResult(t), ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	cs := Compile(st)
	if _, err := cs.Exact(avail); err != nil {
		t.Fatal(err)
	}
	prog := cs.program()
	if len(prog) == 0 {
		t.Fatal("Exact recorded no program")
	}
	root := refNodes + int32(len(prog)) - 1
	refs := map[int32]int{}
	for k, n := range prog {
		for _, r := range []int32{n.hi, n.lo} {
			if r >= refNodes+int32(k) {
				t.Fatalf("node %d refers forward to %d: not post order", k, r)
			}
			refs[r]++
		}
	}
	shared := 0
	for r, n := range refs {
		if r >= refNodes && r != root && n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("no node of the %d-node USI program is shared", len(prog))
	}
	if again := cs.program(); &again[0] != &prog[0] {
		t.Error("a second evaluation recorded the program again")
	}
}

// TestProgramConcurrentFirstUse makes the first Exact, Importances and
// MonteCarlo calls on one fresh structure from 8 goroutines at once (run
// under -race): the lazy recording must be race-free and every caller must
// see the sequential results.
func TestProgramConcurrentFirstUse(t *testing.T) {
	st, avail, err := fromResult(usiResult(t), ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	ref := Compile(st)
	wantExact, _ := ref.Exact(avail)
	wantUp, wantDown, _ := ref.Importances(avail)
	wantMC, _, _ := ref.MonteCarlo(avail, 1000, 3)

	cs := Compile(st)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				if v, err := cs.Exact(avail); err != nil || v != wantExact {
					errs <- "Exact diverged"
				}
			case 1:
				up, down, err := cs.Importances(avail)
				if err != nil {
					errs <- err.Error()
					return
				}
				for i := range up {
					if up[i] != wantUp[i] || down[i] != wantDown[i] {
						errs <- "Importances diverged"
						return
					}
				}
			default:
				if v, _, err := cs.MonteCarlo(avail, 1000, 3); err != nil || v != wantMC {
					errs <- "MonteCarlo diverged"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPatchDropsProgram checks that a patch invalidates the recorded
// program: after PatchRemoveComponent, Exact equals that of a structure
// compiled from the filtered paths, not the pre-patch value.
func TestPatchDropsProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 100; trial++ {
		s, avail := randomStructure(rng)
		cs := Compile(s)
		before, err := cs.Exact(avail) // records the program
		if err != nil {
			t.Fatal(err)
		}
		c := cs.names[rng.Intn(len(cs.names))]
		if _, err := cs.PatchRemoveComponent(c); err != nil {
			t.Fatal(err)
		}
		want, werr := Compile(filteredStructure(s, map[string]bool{c: true})).Exact(avail)
		got, gerr := cs.Exact(avail)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("trial %d: recompiled error %v, patched error %v", trial, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if got != want {
			t.Fatalf("trial %d: patched Exact %.17g (before patch %.17g), recompiled %.17g", trial, got, before, want)
		}
		if got != before {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no patch changed the availability; the test checks nothing")
	}
}
