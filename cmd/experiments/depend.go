package main

import (
	"fmt"
	"math"

	"upsim"
	"upsim/internal/depend"
)

// dependWorkload is one row of the BENCH_depend.json record: one service
// structure measured under the compiled kernel across the §VII algorithm
// families. ExactFactoring and Importances time what a request pays: a
// fresh Compile plus the first evaluation, which records the factoring
// program. MCNsPerSample is the best Monte Carlo run per sample.
type dependWorkload struct {
	Structure      string  `json:"structure"`
	Components     int     `json:"components"`
	Words          int     `json:"bitsetWords"`
	ServiceSets    int     `json:"servicePathSets"`
	CutSets        int     `json:"minimalCutSets"`
	MinimalCuts    timing  `json:"minimalCuts"`
	ExactFactoring timing  `json:"exactFactoring"`
	Importances    timing  `json:"importances"`
	MonteCarlo     timing  `json:"monteCarlo"`
	MCSamples      int     `json:"mcSamplesPerRun"`
	MCNsPerSample  float64 `json:"mcNsPerSample"`
}

// dependChain builds a synthetic series-of-redundant-stages structure:
// `atomics` services in series, each reachable over `width` parallel paths
// that share one hub component and continue over `tail` private components.
// It is the §VII shape dial: service path sets = width^atomics (the
// cross-product load), minimal cut sets = atomics·(1 + tail^width)
// (the transversal load), components = atomics·(1 + width·tail) (the
// Monte Carlo and interning load).
func dependChain(atomics, width, tail int) (*depend.ServiceStructure, map[string]float64) {
	st := &depend.ServiceStructure{}
	avail := map[string]float64{}
	for i := 0; i < atomics; i++ {
		a := depend.AtomicStructure{Name: fmt.Sprintf("stage%d", i)}
		hub := fmt.Sprintf("s%dhub", i)
		avail[hub] = 0.999 - 0.001*float64(i%7)
		for j := 0; j < width; j++ {
			ps := depend.PathSet{hub}
			for k := 0; k < tail; k++ {
				c := fmt.Sprintf("s%dp%dc%d", i, j, k)
				ps = append(ps, c)
				avail[c] = 0.95 + 0.005*float64((i+j+k)%9)
			}
			a.PathSets = append(a.PathSets, ps)
		}
		st.AtomicServices = append(st.AtomicServices, a)
	}
	return st, avail
}

// expDepend times the compiled dependability kernel across the §VII
// algorithm families.
func expDepend() (any, error) {
	type workload struct {
		name  string
		st    *depend.ServiceStructure
		avail map[string]float64
	}
	var ws []workload
	add := func(name string, atomics, width, tail int) {
		st, avail := dependChain(atomics, width, tail)
		ws = append(ws, workload{name, st, avail})
	}
	add("series a=2 w=3 t=2", 2, 3, 2) // 14 components,  9 service sets
	add("series a=2 w=4 t=2", 2, 4, 2) // 18 components, 16 service sets
	add("series a=2 w=4 t=3", 2, 4, 3) // 26 components, 16 sets, 164 cuts
	if !smoke {
		add("wide   a=4 w=4 t=4", 4, 4, 4) // 68 components (2 words)
		// The USI case study: the real pipeline output, 20 components.
		m, err := upsim.USIModel()
		if err != nil {
			return nil, err
		}
		svc, err := upsim.USIPrintingService(m)
		if err != nil {
			return nil, err
		}
		gen, err := upsim.NewGenerator(m, upsim.USIDiagramName)
		if err != nil {
			return nil, err
		}
		res, err := gen.Generate(svc, upsim.USITableIMapping(), "depend-bench", upsim.Options{})
		if err != nil {
			return nil, err
		}
		st, avail, err := upsim.StructureOf(res, upsim.ModelExact)
		if err != nil {
			return nil, err
		}
		ws = append(ws, workload{"usi t1→p2", st, avail})
	}

	mcSamples := 20000
	if smoke {
		mcSamples = 2000
	}
	fmt.Printf("  %d Monte Carlo samples per run\n", mcSamples)
	fmt.Printf("  %-20s %5s %5s %5s %6s  %s\n",
		"structure", "comps", "words", "sets", "cuts", "median ±IQR: cuts | exact | importances | MC")

	var rows []dependWorkload
	for _, x := range ws {
		cs := depend.Compile(x.st)
		sets, err := x.st.ServicePathSets(0)
		if err != nil {
			return nil, err
		}
		cuts, err := cs.MinimalCutSets(0)
		if err != nil {
			return nil, err
		}
		w := dependWorkload{
			Structure:   x.name,
			Components:  cs.NumComponents(),
			Words:       cs.Words(),
			ServiceSets: len(sets),
			CutSets:     len(cuts),
			MCSamples:   mcSamples,
		}
		avail := x.avail
		for _, fam := range []struct {
			t   *timing
			run func() error
		}{
			{&w.MinimalCuts, func() error { _, err := cs.MinimalCutSets(0); return err }},
			{&w.ExactFactoring, func() error { _, err := depend.Compile(x.st).Exact(avail); return err }},
			{&w.Importances, func() error { _, _, err := depend.Compile(x.st).Importances(avail); return err }},
			{&w.MonteCarlo, func() error { _, _, err := cs.MonteCarlo(avail, mcSamples, 7); return err }},
		} {
			if *fam.t, err = measure(fam.run); err != nil {
				return nil, err
			}
		}
		w.MCNsPerSample = math.Round(float64(w.MonteCarlo.BestNs)/float64(mcSamples)*100) / 100
		rows = append(rows, w)
		fmt.Printf("  %-20s %5d %5d %5d %6d  %v | %v | %v | %v\n",
			w.Structure, w.Components, w.Words, w.ServiceSets, w.CutSets,
			w.MinimalCuts, w.ExactFactoring, w.Importances, w.MonteCarlo)
	}
	return rows, nil
}
