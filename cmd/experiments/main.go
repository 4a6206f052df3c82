// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md, "Experiment index"): the profiles of Figures
// 6–7, the component classes of Figure 8, the infrastructure of Figures
// 5/9, the printing service of Figure 10, the Table I mapping and its
// Figure 3 XML form, the Section VI-G path listing, the UPSIMs of Figures
// 11–12, the Section VII availability analysis, and the extended scalability
// (Section V-D) and dynamicity (Section V-A3) studies.
//
// Usage:
//
//	experiments [-exp all|f3|f6|f7|f8|f9|f10|t1|paths|f11|f12|context|avail|rbd|qos|importance|sensitivity|cloud|scaling|dynamicity|cache|pathdisc|depend|whatif|warm|kbest]
//	            [-bench-out BENCH_cache.json] [-pathdisc-out BENCH_pathdisc.json]
//	            [-depend-out BENCH_depend.json] [-whatif-out BENCH_whatif.json]
//	            [-warm-out BENCH_warm.json] [-kbest-out BENCH_kbest.json] [-smoke]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"upsim"
	"upsim/internal/casestudy"
	"upsim/internal/importers"
	"upsim/internal/modelgen"
	"upsim/internal/pathdisc"
	"upsim/internal/rbdgen"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (all, f3, f6, f7, f8, f9, f10, t1, paths, f11, f12, context, avail, rbd, qos, importance, sensitivity, cloud, scaling, dynamicity, cache, pathdisc, depend, whatif, warm, kbest)")
	flag.StringVar(&benchOut, "bench-out", "BENCH_cache.json", "file for the cache experiment's JSON record (empty disables)")
	flag.StringVar(&pathdiscOut, "pathdisc-out", "BENCH_pathdisc.json", "file for the pathdisc experiment's JSON record (empty disables)")
	flag.StringVar(&dependOut, "depend-out", "BENCH_depend.json", "file for the depend experiment's JSON record (empty disables)")
	flag.StringVar(&whatifOut, "whatif-out", "BENCH_whatif.json", "file for the whatif experiment's JSON record (empty disables)")
	flag.StringVar(&warmOut, "warm-out", "BENCH_warm.json", "file for the warm experiment's JSON record (empty disables)")
	flag.StringVar(&kbestOut, "kbest-out", "BENCH_kbest.json", "file for the kbest experiment's JSON record (empty disables)")
	flag.BoolVar(&dependSmoke, "smoke", false, "shrink the depend, whatif, warm and kbest experiments to CI-sized sanity runs")
	flag.Parse()
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type experiment struct {
	id    string
	title string
	fn    func() error
}

func experimentsList() []experiment {
	return []experiment{
		{"f6", "Figure 6 — availability profile", expF6},
		{"f7", "Figure 7 — network profile", expF7},
		{"f8", "Figure 8 — component classes", expF8},
		{"f9", "Figures 5/9 — infrastructure object diagram", expF9},
		{"f10", "Figure 10 — printing service activity", expF10},
		{"t1", "Table I — service mapping pairs", expT1},
		{"f3", "Figure 3 — mapping XML", expF3},
		{"context", "Figures 1/2/4 — pipeline context (model space after Steps 5-6)", expContext},
		{"paths", "Section VI-G — path discovery for the first pair", expPaths},
		{"f11", "Figure 11 — UPSIM for t1 → p2 via printS", expF11},
		{"f12", "Figure 12 — UPSIM for t15 → p3 via printS", expF12},
		{"avail", "Section VII — user-perceived availability analysis", expAvail},
		{"rbd", "Ref [20] — UPSIM → RBD model transformation", expRBD},
		{"qos", "Section VII — performability and responsiveness", expQoS},
		{"importance", "Extension — cut sets, bounds and importance for t1 → p2", expImportance},
		{"sensitivity", "Extension — class-level MTBF/MTTR sensitivity", expSensitivity},
		{"cloud", "§VIII future work — fat-tree cloud infrastructure", expCloud},
		{"scaling", "Section V-D — path discovery scalability", expScaling},
		{"dynamicity", "Section V-A3 — dynamicity scenarios", expDynamicity},
		{"cache", "Extension — content-addressed cache & concurrent discovery", expCache},
		{"pathdisc", "Extension — compiled CSR path-discovery kernel timings", expPathdisc},
		{"depend", "Extension — compiled dependability kernel timings", expDepend},
		{"whatif", "Extension — live-topology patching vs cold recompilation", expWhatIf},
		{"warm", "Extension — allocation-free warm path vs per-request cold build", expWarm},
		{"kbest", "Extension — budgeted k-best discovery vs full enumeration", expKBest},
	}
}

func run(id string) error {
	for _, e := range experimentsList() {
		if id != "all" && id != e.id {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		if err := e.fn(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println()
		if id == e.id {
			return nil
		}
	}
	if id != "all" {
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// base builds the case-study inputs shared by most experiments.
func base() (*upsim.Model, *upsim.Composite, *upsim.Generator, error) {
	m, err := upsim.USIModel()
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := upsim.USIPrintingService(m)
	if err != nil {
		return nil, nil, nil, err
	}
	gen, err := upsim.NewGenerator(m, upsim.USIDiagramName)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, svc, gen, nil
}

func printProfile(p *upsim.Profile) {
	for _, st := range p.Stereotypes() {
		kind := "stereotype"
		if st.IsAbstract() {
			kind = "abstract stereotype"
		}
		ext := ""
		if st.Extends().String() != "None" {
			ext = " extends " + st.Extends().String()
		}
		parent := ""
		if st.Parent() != nil {
			parent = " : " + st.Parent().Name()
		}
		fmt.Printf("  <<%s>>%s (%s%s)\n", st.Name(), parent, kind, ext)
		for _, a := range st.OwnAttributes() {
			def := ""
			if !a.Default.IsZero() {
				def = " = " + a.Default.String()
			}
			fmt.Printf("      %s:%s%s\n", a.Name, a.Kind, def)
		}
	}
}

func expF6() error {
	p, err := casestudy.AvailabilityProfile()
	if err != nil {
		return err
	}
	printProfile(p)
	return nil
}

func expF7() error {
	p, err := casestudy.NetworkProfile()
	if err != nil {
		return err
	}
	printProfile(p)
	return nil
}

func expF8() error {
	m, err := upsim.USIModel()
	if err != nil {
		return err
	}
	fmt.Printf("  %-28s %10s %8s %10s %-12s %s\n", "class", "MTBF[h]", "MTTR[h]", "redundant", "manufacturer", "model")
	for _, c := range m.Classes() {
		mtbf, _ := c.Property("MTBF")
		mttr, _ := c.Property("MTTR")
		red, _ := c.Property("redundantComponents")
		man, _ := c.Property("manufacturer")
		mod, _ := c.Property("model")
		fmt.Printf("  %-28s %10s %8s %10s %-12s %s\n",
			c.String(), mtbf.String(), mttr.String(), red.String(), man.AsString(), mod.AsString())
	}
	return nil
}

func expF9() error {
	m, err := upsim.USIModel()
	if err != nil {
		return err
	}
	d, _ := m.Diagram(upsim.USIDiagramName)
	fmt.Printf("  %d instances, %d links\n", d.NumInstances(), d.NumLinks())
	byClass := map[string][]string{}
	for _, inst := range d.Instances() {
		cls := inst.Classifier().Name()
		byClass[cls] = append(byClass[cls], inst.Name())
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		sort.Strings(byClass[c])
		fmt.Printf("  %-8s (%2d): %v\n", c, len(byClass[c]), byClass[c])
	}
	fmt.Println("  links:")
	for _, l := range d.Links() {
		a, b := l.Ends()
		fmt.Printf("    %s -- %s (%s)\n", a.Signature(), b.Signature(), l.Association().Name())
	}
	return nil
}

func expF10() error {
	m, err := upsim.USIModel()
	if err != nil {
		return err
	}
	svc, err := upsim.USIPrintingService(m)
	if err != nil {
		return err
	}
	fmt.Println("  composite service:", svc.Name())
	for i, stage := range svc.Stages() {
		fmt.Printf("  stage %d: %v\n", i+1, stage)
	}
	return nil
}

func expT1() error {
	fmt.Printf("  %-20s | %-8s | %-8s\n", "AS", "RQ", "PR")
	for _, p := range upsim.USITableIMapping().Pairs() {
		fmt.Printf("  %-20s | %-8s | %-8s\n", p.AtomicService, p.Requester, p.Provider)
	}
	return nil
}

func expF3() error {
	var buf bytes.Buffer
	if err := upsim.WriteMapping(&buf, upsim.USITableIMapping()); err != nil {
		return err
	}
	fmt.Println(buf.String())
	// Round trip.
	mp, err := upsim.ReadMapping(&buf)
	if err != nil {
		return err
	}
	fmt.Printf("  round trip: %d pairs parsed back\n", mp.Len())
	return nil
}

func expContext() error {
	_, svc, gen, err := base()
	if err != nil {
		return err
	}
	res, err := gen.Generate(svc, upsim.USITableIMapping(), "ctx", upsim.Options{})
	if err != nil {
		return err
	}
	if err := gen.Record(res); err != nil {
		return err
	}
	s, err := gen.Space()
	if err != nil {
		return err
	}
	fmt.Printf("  model space after Steps 5-8: %d entities, %d relations\n",
		s.NumEntities(), s.NumRelations())
	for _, fqn := range []string{
		importers.NSUMLMetamodel, importers.NSMappingMetamodel,
		"models.usi.classes", "models.usi.associations",
		"models.usi.diagrams.infrastructure", "models.usi.activities.printing",
		"mappings", "paths.ctx",
	} {
		e, ok := s.Lookup(fqn)
		if !ok {
			return fmt.Errorf("namespace %q missing", fqn)
		}
		fmt.Printf("  %-40s %d children\n", fqn, len(e.Children()))
	}
	fmt.Printf("  link relations: %d, classifier relations: %d, flow relations: %d\n",
		len(s.Relations(importers.RelLink)),
		len(s.Relations(importers.RelClassifier)),
		len(s.Relations(importers.RelFlow)))
	return nil
}

func expPaths() error {
	_, _, gen, err := base()
	if err != nil {
		return err
	}
	paths, stats, err := upsim.AllPaths(gen.Graph(), "t1", "printS", upsim.PathOptions{})
	if err != nil {
		return err
	}
	fmt.Println("  all simple paths t1 → printS (first Table I pair):")
	for _, p := range paths {
		fmt.Println("   ", p)
	}
	fmt.Printf("  published in VI-G: %v\n", casestudy.ExamplePathsT1PrintS)
	fmt.Printf("  stats: %d paths, %d edge visits, max stack %d\n",
		stats.Paths, stats.EdgeVisits, stats.MaxStack)
	return nil
}

func upsimFigure(mp *upsim.Mapping, name string, want []string) error {
	_, svc, gen, err := base()
	if err != nil {
		return err
	}
	res, err := gen.Generate(svc, mp, name, upsim.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("  generated UPSIM %q: %d components, %d links, %d discovered paths\n",
		name, res.Graph.NumNodes(), res.Graph.NumEdges(), res.TotalPaths)
	for _, inst := range res.UPSIM.Instances() {
		fmt.Println("   ", inst.Signature())
	}
	got := res.NodeNames()
	match := len(got) == len(want)
	if match {
		for i := range want {
			if got[i] != want[i] {
				match = false
				break
			}
		}
	}
	fmt.Printf("  matches paper node set: %v\n", match)
	return nil
}

func expF11() error {
	return upsimFigure(upsim.USITableIMapping(), "upsim-t1-p2", casestudy.Figure11Nodes)
}

func expF12() error {
	return upsimFigure(upsim.USIT15P3Mapping(), "upsim-t15-p3", casestudy.Figure12Nodes)
}

func expAvail() error {
	m, svc, gen, err := base()
	if err != nil {
		return err
	}
	// Per-class availability: exact vs Formula 1.
	fmt.Println("  per-class availability (Formula 1 vs exact):")
	fmt.Printf("  %-10s %10s %8s %14s %14s %12s\n", "class", "MTBF[h]", "MTTR[h]", "1-MTTR/MTBF", "MTBF/(MTBF+MTTR)", "delta")
	for _, c := range m.Classes() {
		mtbf, _ := c.Property("MTBF")
		mttr, _ := c.Property("MTTR")
		f1, err := upsim.AvailabilityFormula1(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			return err
		}
		ex, err := upsim.Availability(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s %10.0f %8.1f %14.8f %14.8f %12.3e\n",
			c.Name(), mtbf.AsReal(), mttr.AsReal(), f1, ex, ex-f1)
	}
	// Service availability for both published perspectives.
	fmt.Println("\n  user-perceived printing-service availability:")
	fmt.Printf("  %-12s %14s %14s %22s %12s\n", "perspective", "exact", "naive RBD", "Monte Carlo", "downtime/yr")
	for _, pc := range []struct {
		name string
		mp   *upsim.Mapping
	}{
		{"t1 → p2", upsim.USITableIMapping()},
		{"t15 → p3", upsim.USIT15P3Mapping()},
	} {
		res, err := gen.Generate(svc, pc.mp, "avail-"+pc.name, upsim.Options{})
		if err != nil {
			return err
		}
		rep, err := upsim.Analyze(res, upsim.ModelExact, 200000, 42)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s %14.10f %14.10f %12.6f ± %.6f %9.1f h\n",
			pc.name, rep.Exact, rep.RBDApprox, rep.MonteCarlo, rep.MCStdErr, rep.DowntimePerYearHours)
	}
	return nil
}

func expRBD() error {
	_, svc, gen, err := base()
	if err != nil {
		return err
	}
	res, err := gen.Generate(svc, upsim.USITableIMapping(), "rbd-demo", upsim.Options{})
	if err != nil {
		return err
	}
	if err := gen.Record(res); err != nil {
		return err
	}
	avail := map[string]float64{}
	for _, inst := range res.Source.Instances() {
		mtbf, _ := inst.Property("MTBF")
		mttr, _ := inst.Property("MTTR")
		a, err := upsim.Availability(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			return err
		}
		avail[inst.Name()] = a
	}
	space, err := gen.Space()
	if err != nil {
		return err
	}
	root, err := rbdgen.Transform(space, "rbd-demo", avail)
	if err != nil {
		return err
	}
	block, err := rbdgen.ToBlock(root)
	if err != nil {
		return err
	}
	a, err := block.Availability()
	if err != nil {
		return err
	}
	fmt.Printf("  RBD model materialised at %q in the model space\n", rbdgen.RootFQN("rbd-demo"))
	fmt.Printf("  device-only RBD availability: %.10f (independence assumption)\n", a)
	fmt.Println("  structure (first atomic service):")
	for _, line := range strings.SplitN(rbdgen.Render(root), "\n", 16)[:15] {
		fmt.Println("   ", line)
	}
	return nil
}

func expQoS() error {
	_, svc, gen, err := base()
	if err != nil {
		return err
	}
	fmt.Println("  performability (widest-path throughput, Mbit/s) and responsiveness")
	fmt.Println("  (probability of delivery within a hop budget) per perspective:")
	fmt.Printf("  %-12s %12s %8s %16s %16s\n", "perspective", "throughput", "budget", "responsiveness", "availability")
	for _, pc := range []struct {
		name string
		mp   *upsim.Mapping
	}{
		{"t1 → p2", upsim.USITableIMapping()},
		{"t15 → p3", upsim.USIT15P3Mapping()},
	} {
		res, err := gen.Generate(svc, pc.mp, "qos-"+pc.name, upsim.Options{})
		if err != nil {
			return err
		}
		tp, err := upsim.AnalyzeThroughput(res)
		if err != nil {
			return err
		}
		for _, hops := range []int{4, 5, 8} {
			rr, err := upsim.AnalyzeResponsiveness(res, upsim.ModelExact, hops)
			if err != nil {
				return err
			}
			fmt.Printf("  %-12s %12.0f %8d %16.10f %16.10f (%d/%d paths)\n",
				pc.name, tp.Service, hops, rr.Responsiveness, rr.Availability,
				rr.PathsWithinBudget, rr.PathsTotal)
		}
	}
	fmt.Println("  (the 100 Mbit/s client/printer access ports bound the throughput;")
	fmt.Println("   tight hop budgets drop the redundant core detour first)")
	return nil
}

func expImportance() error {
	_, svc, gen, err := base()
	if err != nil {
		return err
	}
	res, err := gen.Generate(svc, upsim.USITableIMapping(), "imp", upsim.Options{})
	if err != nil {
		return err
	}
	st, cs, avail, err := upsim.CompiledStructureOf(res, upsim.ModelExact)
	if err != nil {
		return err
	}
	exact, err := st.Exact(avail)
	if err != nil {
		return err
	}
	cuts, err := st.MinimalCutSets(0)
	if err != nil {
		return err
	}
	spofs := 0
	for _, k := range cuts {
		if len(k) == 1 {
			spofs++
		}
	}
	bounds, err := st.EsaryProschan(avail, 0)
	if err != nil {
		return err
	}
	fmt.Printf("  minimal cut sets: %d (%d single points of failure)\n", len(cuts), spofs)
	fmt.Printf("  Esary–Proschan: %.10f ≤ exact %.10f ≤ %.10f\n", bounds.Lower, exact, bounds.Upper)
	type row struct {
		comp string
		fv   float64
	}
	_, fussellVesely, err := cs.BirnbaumFussellVesely(avail, exact)
	if err != nil {
		return err
	}
	var rows []row
	for i, c := range cs.Components() {
		rows = append(rows, row{c, fussellVesely[i]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].fv > rows[j].fv })
	fmt.Println("  Fussell–Vesely importance (top 5):")
	for i, r := range rows {
		if i >= 5 {
			break
		}
		fmt.Printf("    %-22s %.4f\n", r.comp, r.fv)
	}
	for _, scenario := range []struct {
		label  string
		forced map[string]bool
	}{
		{"core c1 down", map[string]bool{"c1": false}},
		{"client t1 perfect", map[string]bool{"t1": true}},
	} {
		a, err := st.WhatIf(avail, scenario.forced)
		if err != nil {
			return err
		}
		fmt.Printf("  what-if %-18s -> %.8f (Δ%+.2e)\n", scenario.label, a, a-exact)
	}
	return nil
}

func expSensitivity() error {
	_, svc, gen, err := base()
	if err != nil {
		return err
	}
	res, err := gen.Generate(svc, upsim.USITableIMapping(), "sens", upsim.Options{})
	if err != nil {
		return err
	}
	rep, err := upsim.AnalyzeSensitivity(res)
	if err != nil {
		return err
	}
	fmt.Println("  availability gained per hour of class-wide MTBF improvement")
	fmt.Println("  (and lost per hour of MTTR increase), t1 → p2 perspective:")
	fmt.Printf("  %-22s %10s %14s %14s\n", "class/association", "instances", "dA/dMTBF[1/h]", "dA/dMTTR[1/h]")
	for _, cs := range rep.Classes {
		fmt.Printf("  %-22s %10d %14.3e %14.3e\n", cs.Class, cs.Instances, cs.DAvailDMTBF, cs.DAvailDMTTR)
	}
	fmt.Println("  (upgrading the Comp client class pays ~5 orders of magnitude more")
	fmt.Println("   than any switch class — the user-perceived view prices upgrades)")
	return nil
}

func expCloud() error {
	start := time.Now()
	g, err := topology.FatTree(4)
	if err != nil {
		return err
	}
	m, err := modelgen.Build("cloud", g, modelgen.Params{
		Classes: map[string]modelgen.ClassParams{
			"Host": {MTBF: 20000, MTTR: 4},
			"Core": {MTBF: 61320, MTTR: 0.5},
		},
	})
	if err != nil {
		return err
	}
	svc, err := upsim.NewSequentialService(m, "vm-to-storage", "write", "ack")
	if err != nil {
		return err
	}
	mp := upsim.NewMapping()
	if err := mp.Add(upsim.Pair{AtomicService: "write", Requester: "h0-0-0", Provider: "h3-1-1"}); err != nil {
		return err
	}
	if err := mp.Add(upsim.Pair{AtomicService: "ack", Requester: "h3-1-1", Provider: "h0-0-0"}); err != nil {
		return err
	}
	gen, err := upsim.NewGenerator(m, "infrastructure")
	if err != nil {
		return err
	}
	res, err := gen.Generate(svc, mp, "cloud-upsim", upsim.Options{
		Paths: upsim.PathOptions{MaxDepth: 6}, // valley-free up-down routes
	})
	if err != nil {
		return err
	}
	rep, err := upsim.Analyze(res, upsim.ModelExact, 50000, 1)
	if err != nil {
		return err
	}
	fmt.Printf("  fat-tree k=4 (%d nodes, %d links), cross-pod host pair, hop budget 6\n",
		g.NumNodes(), g.NumEdges())
	paths, _ := res.PathsFor("write")
	fmt.Printf("  UPSIM: %d components, %d links; %d valley-free paths/direction\n",
		res.Graph.NumNodes(), res.Graph.NumEdges(), len(paths))
	fmt.Printf("  availability: exact %.8f, naive RBD %.8f (Δ=%.2e)\n",
		rep.Exact, rep.RBDApprox, rep.RBDApprox-rep.Exact)
	fmt.Printf("  end-to-end model synthesis + generation + analysis: %s\n",
		time.Since(start).Round(time.Millisecond))
	fmt.Println("  (the same pipeline, unchanged, on a generated data-center topology —")
	fmt.Println("   the paper's deferred cloud-computing applicability demonstrated)")
	return nil
}

func expScaling() error {
	fmt.Println("  all-simple-paths discovery effort by topology shape (Section V-D):")
	fmt.Printf("  %-22s %7s %7s %10s %12s %12s\n", "topology", "nodes", "edges", "paths", "edge visits", "time")
	type tc struct {
		name string
		g    *topology.Graph
		src  string
		dst  string
	}
	var cases []tc
	for _, depth := range []int{4, 6, 8} {
		g, err := topology.Tree(2, depth)
		if err != nil {
			return err
		}
		last := fmt.Sprintf("n%d", g.NumNodes()-1)
		cases = append(cases, tc{fmt.Sprintf("tree fanout=2 depth=%d", depth), g, "n0", last})
	}
	for _, edges := range []int{4, 8, 16} {
		g, err := topology.Campus(topology.CampusParams{
			EdgeSwitches: edges, ClientsPerEdge: 3, ServersPerSwitch: 3, RedundantCore: true,
		})
		if err != nil {
			return err
		}
		cases = append(cases, tc{fmt.Sprintf("campus edges=%d", edges), g, "t1", "srv1"})
	}
	for _, p := range []float64{0.02, 0.04, 0.06} {
		g, err := topology.RandomConnected(30, p, 1)
		if err != nil {
			return err
		}
		cases = append(cases, tc{fmt.Sprintf("random n=30 loops=%.2f", p), g, "n0", "n29"})
	}
	for _, k := range []int{4, 6} {
		g, err := topology.FatTree(k)
		if err != nil {
			return err
		}
		half := k / 2
		cases = append(cases, tc{fmt.Sprintf("fat-tree k=%d", k), g,
			"h0-0-0", fmt.Sprintf("h%d-%d-%d", k-1, half-1, half-1)})
	}
	for _, n := range []int{6, 8, 10} {
		g, err := topology.Mesh(n)
		if err != nil {
			return err
		}
		cases = append(cases, tc{fmt.Sprintf("mesh n=%d (O(n!) case)", n), g, "n0", fmt.Sprintf("n%d", n-1)})
	}
	// Count without storing: dense instances can hold astronomically many
	// simple paths, and the point of the study is the growth trend, not an
	// exhaustive store. A generous cap keeps the harness bounded.
	const pathCap = 500_000
	for _, c := range cases {
		k := pathdisc.Compile(c.g)
		start := time.Now()
		count, stats, err := k.CountPaths(c.src, c.dst, pathdisc.Options{MaxPaths: pathCap})
		if err != nil {
			return err
		}
		rendered := fmt.Sprintf("%d", count)
		if stats.Truncated {
			rendered = fmt.Sprintf(">=%d", pathCap)
		}
		fmt.Printf("  %-22s %7d %7d %10s %12d %12s\n",
			c.name, c.g.NumNodes(), c.g.NumEdges(), rendered, stats.EdgeVisits,
			time.Since(start).Round(time.Microsecond))
	}
	fmt.Println("  (trees: exactly 1 path; campus: few paths independent of size;")
	fmt.Println("   meshes: factorial growth — the motivation for tree-like real networks)")
	return nil
}

func expDynamicity() error {
	m, svc, gen, err := base()
	if err != nil {
		return err
	}
	fmt.Println("  which model changes per scenario (Section V-A3), with regeneration cost:")
	fmt.Printf("  %-26s %-9s %-9s %-9s %12s\n", "scenario", "network", "service", "mapping", "regen time")

	timeGen := func(name string, mp *upsim.Mapping, s *upsim.Composite, g *upsim.Generator) (time.Duration, error) {
		start := time.Now()
		if _, err := g.Generate(s, mp, name, upsim.Options{}); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}

	// 1. Mobility: the user moves t1 → t6; only the mapping changes.
	baseline, err := gen.Generate(svc, upsim.USITableIMapping(), "dyn-base", upsim.Options{})
	if err != nil {
		return err
	}
	mob := upsim.USITableIMapping().Clone()
	if _, err := mob.RemapComponent("t1", "t6"); err != nil {
		return err
	}
	start := time.Now()
	mobRes, err := gen.Generate(svc, mob, "dyn-mobility", upsim.Options{})
	if err != nil {
		return err
	}
	d1 := time.Since(start)
	fmt.Printf("  %-26s %-9s %-9s %-9s %12s\n", "user mobility (t1→t6)", "-", "-", "changed", d1.Round(time.Microsecond))
	diff, err := upsim.CompareResults(baseline, mobRes)
	if err != nil {
		return err
	}
	fmt.Printf("    perceived-infrastructure diff: %s\n", diff)

	// 2. Service migration: printS moves to file2; only the mapping changes.
	mig := upsim.USITableIMapping().Clone()
	if _, err := mig.RemapComponent("printS", "file2"); err != nil {
		return err
	}
	d2, err := timeGen("dyn-migration", mig, svc, gen)
	if err != nil {
		return err
	}
	fmt.Printf("  %-26s %-9s %-9s %-9s %12s\n", "service migration", "-", "-", "changed", d2.Round(time.Microsecond))

	// 3. Topology change: a new client joins; network model and mapping
	// change, service description untouched.
	d, _ := m.Diagram(upsim.USIDiagramName)
	comp := m.MustClass("Comp")
	newClient, err := d.AddInstance("t16", comp)
	if err != nil {
		return err
	}
	e4, _ := d.Instance("e4")
	assoc, _ := m.AssociationBetween(comp, m.MustClass("HP2650"))
	if _, err := d.Connect(newClient, e4, assoc); err != nil {
		return err
	}
	gen2, err := upsim.NewGenerator(m, upsim.USIDiagramName) // re-import (Step 5) after topology change
	if err != nil {
		return err
	}
	topo := upsim.USITableIMapping().Clone()
	if _, err := topo.RemapComponent("t1", "t16"); err != nil {
		return err
	}
	d3, err := timeGen("dyn-topology", topo, svc, gen2)
	if err != nil {
		return err
	}
	fmt.Printf("  %-26s %-9s %-9s %-9s %12s\n", "topology change (+t16)", "changed", "-", "changed", d3.Round(time.Microsecond))

	// 4. Service substitution: a re-described printing service (different
	// composition, same function) plus mapping; network untouched.
	alt, err := upsim.NewSequentialService(m, "printing-v2",
		"Request printing", "Send documents")
	if err != nil {
		return err
	}
	sub := upsim.NewMapping()
	if err := sub.Add(upsim.Pair{AtomicService: "Request printing", Requester: "t1", Provider: "printS"}); err != nil {
		return err
	}
	if err := sub.Add(upsim.Pair{AtomicService: "Send documents", Requester: "printS", Provider: "p2"}); err != nil {
		return err
	}
	d4, err := timeGen("dyn-substitution", sub, alt, gen2)
	if err != nil {
		return err
	}
	fmt.Printf("  %-26s %-9s %-9s %-9s %12s\n", "service substitution", "-", "changed", "changed", d4.Round(time.Microsecond))
	return nil
}

// silence unused-import on uml when experiments are trimmed.
var _ = uml.KindReal
