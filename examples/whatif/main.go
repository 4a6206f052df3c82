// Whatif turns the paper's conclusion — the UPSIM gives "a quick overview
// on which ICT components can be the cause" of a service problem — into a
// quantitative diagnosis workflow: for the printing user t1→p2 it lists the
// minimal cut sets of the perceived infrastructure (the smallest component
// groups whose joint failure takes the service down for this user), ranks
// components by Fussell–Vesely importance, and answers maintenance what-if
// questions ("what does this user perceive while c1 is down?").
//
// Run with:
//
//	go run ./examples/whatif
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

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
	// LintWarn keeps the what-if loop running on imperfect models but logs
	// every finding through the structured logger.
	res, err := gen.Generate(svc, upsim.USITableIMapping(), "upsim-t1-p2",
		upsim.Options{Lint: upsim.LintWarn})
	if err != nil {
		return err
	}
	st, cs, avail, err := upsim.CompiledStructureOf(res, upsim.ModelExact)
	if err != nil {
		return err
	}
	base, err := st.Exact(avail)
	if err != nil {
		return err
	}
	fmt.Printf("printing service, user t1 → printer p2: availability %.8f\n\n", base)

	// Minimal cut sets: which component groups take the service down.
	cuts, err := st.MinimalCutSets(0)
	if err != nil {
		return err
	}
	singles, doubles := 0, 0
	fmt.Println("== Minimal cut sets (single points of failure first) ==")
	for _, k := range cuts {
		switch len(k) {
		case 1:
			singles++
			fmt.Printf("  SPOF: %s\n", k[0])
		case 2:
			doubles++
		}
	}
	fmt.Printf("  plus %d two-component cut sets; %d cut sets total\n\n", doubles, len(cuts))

	// Esary–Proschan bounds vs the exact value.
	bounds, err := st.EsaryProschan(avail, 0)
	if err != nil {
		return err
	}
	fmt.Printf("== Esary–Proschan bounds ==\n  %.10f ≤ %.10f ≤ %.10f\n\n",
		bounds.Lower, base, bounds.Upper)

	// Fussell–Vesely importance: who is implicated in the outages.
	type row struct {
		comp string
		fv   float64
	}
	_, fussellVesely, err := cs.BirnbaumFussellVesely(avail, base)
	if err != nil {
		return err
	}
	var rows []row
	for i, c := range cs.Components() {
		rows = append(rows, row{comp: c, fv: fussellVesely[i]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].fv > rows[j].fv })
	fmt.Println("== Fussell–Vesely importance (share of outages involving the component) ==")
	for i, r := range rows {
		if i >= 8 {
			break
		}
		bar := strings.Repeat("#", int(r.fv*40+0.5))
		fmt.Printf("  %-22s %7.4f %s\n", r.comp, r.fv, bar)
	}

	// Maintenance what-ifs.
	fmt.Println("\n== What-if: perceived availability under forced component states ==")
	for _, scenario := range []struct {
		label  string
		forced map[string]bool
	}{
		{"core c1 down (maintenance)", map[string]bool{"c1": false}},
		{"core c2 down (maintenance)", map[string]bool{"c2": false}},
		{"client t1 replaced by perfect hardware", map[string]bool{"t1": true}},
		{"printer p2 replaced by perfect hardware", map[string]bool{"p2": true}},
		{"cores c1 and c2 made perfect", map[string]bool{"c1": true, "c2": true}},
	} {
		a, err := st.WhatIf(avail, scenario.forced)
		if err != nil {
			return err
		}
		fmt.Printf("  %-42s %.8f (Δ%+.2e)\n", scenario.label, a, a-base)
	}
	fmt.Println("\nReading: despite the dual-homed print-server switch, BOTH cores are")
	fmt.Println("single points of failure for this pair (t1's branch rides on c1, the")
	fmt.Println("printer's on c2) — planned core maintenance is user-visible downtime.")
	fmt.Println("Yet hardening cores barely moves perceived availability: the client")
	fmt.Println("machine dominates. The user-perceived view shows both facts at once.")
	return nil
}
