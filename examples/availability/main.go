// Availability digs into the Section VII analysis for one user perspective:
// it prints the per-component availability table (Formula 1 vs the exact
// renewal formula), compares the exact structure-function evaluation with
// the naive RBD and fault-tree approximations and a Monte-Carlo estimate,
// and ranks the UPSIM components by Birnbaum importance — the quantitative
// version of the paper's "quick overview on which ICT components can be the
// cause" of a service problem.
//
// Run with:
//
//	go run ./examples/availability
package main

import (
	"fmt"
	"log"
	"sort"

	"upsim"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatal(err)
	}
}

func run() error {
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
	// Lint: upsim.LintFail runs the static-analysis registry before Step 6
	// and aborts with the full report if an error-severity finding exists —
	// e.g. a component whose class lacks the MTBF the table below reads.
	res, err := gen.Generate(svc, upsim.USITableIMapping(), "upsim-t1-p2",
		upsim.Options{Lint: upsim.LintFail})
	if err != nil {
		return err
	}

	// Per-component availability: Formula 1 vs exact (devices only; links
	// share one attribute set in the case study).
	fmt.Println("== Component availability (devices of the t1→p2 UPSIM) ==")
	fmt.Printf("%-10s %-10s %12s %12s %14s %12s\n", "component", "class", "MTBF[h]", "MTTR[h]", "A=1-MTTR/MTBF", "A exact")
	for _, inst := range res.UPSIM.Instances() {
		mtbf, _ := inst.Property("MTBF")
		mttr, _ := inst.Property("MTTR")
		f1, err := upsim.AvailabilityFormula1(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			return err
		}
		exact, err := upsim.Availability(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-10s %12.0f %12.1f %14.8f %12.8f\n",
			inst.Name(), inst.Classifier().Name(), mtbf.AsReal(), mttr.AsReal(), f1, exact)
	}

	// Service-level evaluation.
	st, cs, avail, err := upsim.CompiledStructureOf(res, upsim.ModelExact)
	if err != nil {
		return err
	}
	exact, err := st.Exact(avail)
	if err != nil {
		return err
	}
	rbd, err := st.RBDApprox(avail)
	if err != nil {
		return err
	}
	ft, err := st.ToFaultTree(avail)
	if err != nil {
		return err
	}
	topQ, err := ft.Probability()
	if err != nil {
		return err
	}
	mc, se, err := st.MonteCarlo(avail, 500000, 7)
	if err != nil {
		return err
	}
	fmt.Println("\n== Printing service, user t1 → printer p2 ==")
	fmt.Printf("exact (structure function):    %.10f\n", exact)
	fmt.Printf("naive RBD (ignores sharing):   %.10f  (Δ=%+.3e)\n", rbd, rbd-exact)
	fmt.Printf("fault tree (1 − P(top)):       %.10f\n", 1-topQ)
	fmt.Printf("Monte Carlo (500k samples):    %.6f ± %.6f\n", mc, se)
	fmt.Printf("expected downtime:             %.1f hours/year\n", (1-exact)*365*24)

	// Birnbaum importance ranking.
	type imp struct {
		comp string
		b    float64
	}
	birnbaum, _, err := cs.BirnbaumFussellVesely(avail, exact)
	if err != nil {
		return err
	}
	var imps []imp
	for i, c := range cs.Components() {
		imps = append(imps, imp{comp: c, b: birnbaum[i]})
	}
	sort.Slice(imps, func(i, j int) bool { return imps[i].b > imps[j].b })
	fmt.Println("\n== Birnbaum importance (where a failure hurts this user most) ==")
	for i, x := range imps {
		if i >= 10 {
			break
		}
		fmt.Printf("%2d. %-22s %.8f\n", i+1, x.comp, x.b)
	}
	return nil
}
