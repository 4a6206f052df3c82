package depend

// The factoring program (DESIGN.md §10). Shannon factoring chooses its pivot
// with mostFrequentBit over the path sets alone, so the factoring DAG of a
// compiled structure does not depend on the availabilities — it is a reduced
// BDD in all but name (Bryant 1986; Rauzy 1993). recordProgram runs the
// memoised recursion once and keeps its nodes in post order; every later
// exact evaluation (Exact, WhatIf, Importances and everything built on them)
// is one straight pass over that list. The memo table, key packing and
// exactCtx of memo.go therefore run only when a program is recorded.

// factorNode is one memoised node of the factoring: the value of its
// conditioned formula is a·v[hi] + (1−a)·v[lo] with a = pa[c]. The refs
// index the value vector: refFalse and refTrue hold the constants, ref k+2
// holds node k.
type factorNode struct{ c, hi, lo int32 }

const (
	refFalse = 0
	refTrue  = 1
	refNodes = 2 // ref of node 0
)

// evalStackSlots is the value vector kept on the evaluator's stack; longer
// programs take one heap vector per evaluation call. The USI UPSIM factors
// into 29 nodes.
const evalStackSlots = 256

// program returns the structure's factoring program, recording it on first
// use. Concurrent first callers block on one recording.
func (cs *CompiledStructure) program() []factorNode {
	cs.progOnce.Do(cs.recordProgram)
	return cs.prog
}

// recordProgram runs the memoised factoring recursion over pooled scratch
// and keeps its nodes, root last.
func (cs *CompiledStructure) recordProgram() {
	ctx := getExactCtx(len(cs.names))
	f := ctx.ffs.alloc(len(cs.atomics))
	for _, a := range cs.atomics {
		f = append(f, a.sets)
	}
	ctx.prog = ctx.prog[:0]
	cs.recordBits(f, ctx)
	cs.prog = append(make([]factorNode, 0, len(ctx.prog)), ctx.prog...)
	putExactCtx(ctx)
}

// recordBits is the factoring recursion of the test oracle factorBits with
// node refs in place of values: the memo maps a conditioned formula to the
// ref of its node, so shared subformulas become shared nodes. The ref is
// stored in the memo's float64 slot, which holds any int32 exactly.
//
//upsim:hotpath one call per factoring node, at record time
func (cs *CompiledStructure) recordBits(f [][]bitset, ctx *exactCtx) int32 {
	h := ctx.buildKey(f)
	if v, ok := ctx.memo.lookup(ctx.keyTmp, h); ok {
		return int32(v)
	}
	// Reserve the key before recursing: the staging buffer is reused by
	// every deeper node, the arena copy is not.
	klen := int32(len(ctx.keyTmp))
	off := ctx.memo.reserve(ctx.keyTmp)
	c := mostFrequentBit(f, ctx.counts)
	// A constant branch (konst 0 or 1) is the ref refFalse or refTrue.
	var hi, lo int32
	if fUp, konst := conditionBits(f, c, true, ctx); konst >= 0 {
		hi = int32(konst)
	} else {
		hi = cs.recordBits(fUp, ctx)
	}
	if fDown, konst := conditionBits(f, c, false, ctx); konst >= 0 {
		lo = int32(konst)
	} else {
		lo = cs.recordBits(fDown, ctx)
	}
	ref := refNodes + int32(len(ctx.prog))
	ctx.prog = append(ctx.prog, factorNode{c: c, hi: hi, lo: lo})
	ctx.memo.insert(h, off, klen, float64(ref))
	return ref
}

// runProgram evaluates prog against the packed availabilities pa in the
// value vector v (at least len(prog)+refNodes long) and returns the root's
// value. The node expression keeps factorBits' form a*up + (1-a)*down, so
// a platform that fuses multiply-adds fuses both the same way and the
// result stays bit-identical to the recursion.
//
//upsim:hotpath one pass per exact evaluation
func runProgram(prog []factorNode, pa, v []float64) float64 {
	v[refFalse], v[refTrue] = 0, 1
	v = v[:refNodes+len(prog)]
	for k, n := range prog {
		a := pa[n.c]
		v[refNodes+k] = a*v[n.hi] + (1-a)*v[n.lo]
	}
	return v[len(v)-1]
}

// exactPacked is the exact availability for the packed vector pa: one run
// of the factoring program, over a stack value vector when it fits.
func (cs *CompiledStructure) exactPacked(pa []float64) float64 {
	prog := cs.program()
	var buf [evalStackSlots]float64
	v := buf[:]
	if refNodes+len(prog) > len(buf) {
		v = make([]float64, refNodes+len(prog))
	}
	return runProgram(prog, pa, v)
}

// importances fills up and down by forcing each component of the packed
// vector pa up, then down, and restoring it before moving on: two program
// runs per component over one value vector.
func (cs *CompiledStructure) importances(pa, up, down []float64) {
	prog := cs.program()
	var buf [evalStackSlots]float64
	v := buf[:]
	if refNodes+len(prog) > len(buf) {
		v = make([]float64, refNodes+len(prog))
	}
	for i, a := range pa {
		pa[i] = 1
		up[i] = runProgram(prog, pa, v)
		pa[i] = 0
		down[i] = runProgram(prog, pa, v)
		pa[i] = a
	}
}
