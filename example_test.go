package upsim_test

import (
	"fmt"
	"sync"

	"upsim"
)

// ExampleGenerator_Generate reproduces the paper's Figure 11: the UPSIM of
// the printing service for client t1 and printer p2.
func ExampleGenerator_Generate() {
	m, _ := upsim.USIModel()
	svc, _ := upsim.USIPrintingService(m)
	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
	res, _ := gen.Generate(svc, upsim.USITableIMapping(), "t1-to-p2", upsim.Options{})
	fmt.Println(res.NodeNames())
	// Output:
	// [c1 c2 d1 d2 d4 e1 e3 p2 printS t1]
}

// ExampleAllPaths reproduces the Section VI-G path listing for the first
// Table I pair.
func ExampleAllPaths() {
	m, _ := upsim.USIModel()
	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
	paths, _, _ := upsim.AllPaths(gen.Graph(), "t1", "printS", upsim.PathOptions{})
	for _, p := range paths {
		fmt.Println(p)
	}
	// Output:
	// t1—e1—d1—c1—c2—d4—printS
	// t1—e1—d1—c1—d4—printS
}

// ExampleCompile amortises path discovery over a fixed topology: the graph
// is lowered to its CSR form once, then enumerated repeatedly without
// per-call map allocations. The path sets are identical to AllPaths; the
// compiled kernel additionally reports how many expansions its
// reachability pass pruned.
func ExampleCompile() {
	m, _ := upsim.USIModel()
	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
	kernel := upsim.Compile(gen.Graph()) // or gen.Compiled()
	for _, pair := range [][2]string{{"t1", "printS"}, {"t15", "printS"}} {
		paths, stats, _ := kernel.AllPaths(pair[0], pair[1], upsim.PathOptions{MaxDepth: 6})
		fmt.Printf("%s→%s: %d paths, %d expansions pruned\n",
			pair[0], pair[1], len(paths), stats.Pruned)
	}
	// Output:
	// t1→printS: 2 paths, 10 expansions pruned
	// t15→printS: 2 paths, 11 expansions pruned
}

// ExampleMapping_Remap shows the dynamicity lever of Section V-A3: deriving
// the Figure 12 perspective is two component substitutions on a mapping
// clone — no model or service change.
func ExampleMapping_Remap() {
	base := upsim.USITableIMapping()
	moved := base.Clone()
	moved.RemapComponent("t1", "t15")
	moved.RemapComponent("p2", "p3")
	p, _ := moved.Pair("Request printing")
	fmt.Println(p)
	// Output:
	// Request printing: t15 -> printS
}

// ExampleAvailabilityFormula1 evaluates the paper's Formula 1 for the Comp
// client class of Figure 8.
func ExampleAvailabilityFormula1() {
	a, _ := upsim.AvailabilityFormula1(3000, 24)
	fmt.Printf("%.3f\n", a)
	// Output:
	// 0.992
}

// ExampleNewCache attaches a content-addressed result cache to a generator:
// the second identical request skips the pipeline (Steps 6–8) entirely and
// returns the shared Result.
func ExampleNewCache() {
	m, _ := upsim.USIModel()
	svc, _ := upsim.USIPrintingService(m)
	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
	gen.WithCache(upsim.NewCache(64))

	cold, _ := gen.Generate(svc, upsim.USITableIMapping(), "t1-to-p2", upsim.Options{})
	warm, _ := gen.Generate(svc, upsim.USITableIMapping(), "t1-to-p2", upsim.Options{})
	fmt.Println("shared result:", warm == cold)
	fmt.Println(gen.Cache().Stats())
	// Output:
	// shared result: true
	// hits=1 misses=1 shared=0 evictions=0 invalidations=0 entries=1/64
}

// ExampleGenerator_WithCache fans concurrent identical requests through one
// cached generator: singleflight guarantees the pipeline computes exactly
// once and every caller shares the same Result.
func ExampleGenerator_WithCache() {
	m, _ := upsim.USIModel()
	svc, _ := upsim.USIPrintingService(m)
	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
	gen.WithCache(upsim.NewCache(64))

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = gen.Generate(svc, upsim.USITableIMapping(), "batch", upsim.Options{})
		}()
	}
	wg.Wait()
	s := gen.Cache().Stats()
	// Hits vs shared depends on timing; their sum does not.
	fmt.Println("computed:", s.Misses, "reused:", s.Hits+s.Shared)
	// Output:
	// computed: 1 reused: 7
}

// ExampleCacheStats reads the counters of a cache that served a warm and a
// cold request mix.
func ExampleCacheStats() {
	m, _ := upsim.USIModel()
	svc, _ := upsim.USIPrintingService(m)
	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
	c := upsim.NewCache(64)
	gen.WithCache(c)

	gen.Generate(svc, upsim.USITableIMapping(), "a", upsim.Options{}) // miss
	gen.Generate(svc, upsim.USITableIMapping(), "a", upsim.Options{}) // hit
	gen.Generate(svc, upsim.USITableIMapping(), "b", upsim.Options{}) // miss

	var s upsim.CacheStats = c.Stats()
	fmt.Println("hits:", s.Hits)
	fmt.Println("misses:", s.Misses)
	fmt.Println("entries:", s.Entries)
	// Output:
	// hits: 1
	// misses: 2
	// entries: 2
}

// ExampleWhatIf asks the one-shot transient question: what happens to the
// printing service if the print server fails?
func ExampleWhatIf() {
	m, _ := upsim.USIModel()
	svc, _ := upsim.USIPrintingService(m)
	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
	res, _ := gen.Generate(svc, upsim.USITableIMapping(), "printing", upsim.Options{})

	impact, _ := upsim.WhatIf(gen.Graph(), map[string]*upsim.Result{"printing": res},
		upsim.ModelExact, upsim.WhatIfFailure{Components: []string{"printS"}})

	d := impact.Services[0]
	fmt.Println("affected:", d.Affected)
	fmt.Println("availability with printS down:", d.Failed)
	// Output:
	// affected: true
	// availability with printS down: 0
}

// ExampleNewWhatIfEngine applies a permanent topology change: the engine
// mutates its graph, patches the service's compiled kernel in place and
// reports the new availability. The generator is not used again, so the
// engine may own its graph.
func ExampleNewWhatIfEngine() {
	m, _ := upsim.USIModel()
	svc, _ := upsim.USIPrintingService(m)
	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
	res, _ := gen.Generate(svc, upsim.USITableIMapping(), "printing", upsim.Options{})

	eng := upsim.NewWhatIfEngine(gen.Graph(), nil)
	_ = eng.Register("printing", "", res, upsim.ModelExact)

	rep, _ := eng.Apply(upsim.WhatIfDelta{Op: upsim.WhatIfRemoveNode, Node: "p2"})
	d := rep.Services[0]
	fmt.Println("dead:", d.Dead)
	fmt.Println("patch ops:", rep.PatchOps > 0)
	// Output:
	// dead: true
	// patch ops: true
}
