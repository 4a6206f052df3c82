package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"upsim"
	"upsim/internal/depend"
)

// dependOut is where expDepend writes its machine-readable record; empty
// skips the file. main sets it from -depend-out. dependSmoke (from -smoke)
// shrinks reps, sample counts and the workload list so CI can run the
// experiment as a sub-second sanity check.
var (
	dependOut   string
	dependSmoke bool
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
	MCNsPerSample  float64 `json:"mcNsPerSample"`
}

// dependBench is the BENCH_depend.json schema.
type dependBench struct {
	Host       string           `json:"host"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Reps       int              `json:"repsPerFamily"`
	WindowNs   int64            `json:"minSampleWindowNs"`
	MCSamples  int              `json:"mcSamplesPerRun"`
	Smoke      bool             `json:"smoke,omitempty"`
	Workloads  []dependWorkload `json:"workloads"`
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
// algorithm families, each summarised by its best repetition and by the
// median and interquartile range of all of them (the expPathdisc
// methodology).
func expDepend() error {
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
	if !dependSmoke {
		add("wide   a=4 w=4 t=4", 4, 4, 4) // 68 components (2 words)
		// The USI case study: the real pipeline output, 20 components.
		m, err := upsim.USIModel()
		if err != nil {
			return err
		}
		svc, err := upsim.USIPrintingService(m)
		if err != nil {
			return err
		}
		gen, err := upsim.NewGenerator(m, upsim.USIDiagramName)
		if err != nil {
			return err
		}
		res, err := gen.Generate(svc, upsim.USITableIMapping(), "depend-bench", upsim.Options{})
		if err != nil {
			return err
		}
		st, avail, err := upsim.StructureOf(res, upsim.ModelExact)
		if err != nil {
			return err
		}
		ws = append(ws, workload{"usi t1→p2", st, avail})
	}

	window := 20 * time.Millisecond
	b := dependBench{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       9,
		MCSamples:  20000,
		Smoke:      dependSmoke,
	}
	if dependSmoke {
		b.Reps, b.MCSamples, window = 3, 2000, 2*time.Millisecond
	}
	b.WindowNs = window.Nanoseconds()
	fmt.Printf("  %s, GOMAXPROCS=%d, %d reps, >=%s/sample, %d MC samples/run\n",
		b.Host, b.GOMAXPROCS, b.Reps, window, b.MCSamples)
	fmt.Printf("  %-20s %5s %5s %5s %6s  %s\n",
		"structure", "comps", "words", "sets", "cuts", "median ±IQR: cuts | exact | importances | MC")

	// measure calibrates the batch from one cold run, then takes b.Reps
	// samples (see timeBatch).
	measure := func(f func() error) (timing, error) {
		calStart := time.Now()
		if err := f(); err != nil {
			return timing{}, err
		}
		batch := int(window / max(time.Since(calStart), time.Microsecond))
		batch = min(max(batch, 1), 512)
		samples := make([]int64, 0, b.Reps)
		for i := 0; i < b.Reps; i++ {
			d, err := timeBatch(batch, f)
			if err != nil {
				return timing{}, err
			}
			samples = append(samples, d)
		}
		return summarise(samples, batch), nil
	}

	for _, x := range ws {
		cs := depend.Compile(x.st)
		sets, err := x.st.ServicePathSets(0)
		if err != nil {
			return err
		}
		cuts, err := cs.MinimalCutSets(0)
		if err != nil {
			return err
		}
		w := dependWorkload{
			Structure:   x.name,
			Components:  cs.NumComponents(),
			Words:       cs.Words(),
			ServiceSets: len(sets),
			CutSets:     len(cuts),
		}
		avail := x.avail
		for _, fam := range []struct {
			t   *timing
			run func() error
		}{
			{&w.MinimalCuts, func() error { _, err := cs.MinimalCutSets(0); return err }},
			{&w.ExactFactoring, func() error { _, err := depend.Compile(x.st).Exact(avail); return err }},
			{&w.Importances, func() error { _, _, err := depend.Compile(x.st).Importances(avail); return err }},
			{&w.MonteCarlo, func() error { _, _, err := cs.MonteCarlo(avail, b.MCSamples, 7); return err }},
		} {
			if *fam.t, err = measure(fam.run); err != nil {
				return err
			}
		}
		w.MCNsPerSample = math.Round(float64(w.MonteCarlo.BestNs)/float64(b.MCSamples)*100) / 100
		b.Workloads = append(b.Workloads, w)
		fmt.Printf("  %-20s %5d %5d %5d %6d  %v | %v | %v | %v\n",
			w.Structure, w.Components, w.Words, w.ServiceSets, w.CutSets,
			w.MinimalCuts, w.ExactFactoring, w.Importances, w.MonteCarlo)
	}

	if dependOut != "" {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(dependOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", dependOut)
	}
	return nil
}

// hostName names the machine a benchmark record was taken on: the CPU model
// where /proc/cpuinfo reports one, the architecture and the CPU count.
func hostName() string {
	cpu := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %s, %d CPUs", cpu, runtime.GOARCH, runtime.NumCPU())
}
