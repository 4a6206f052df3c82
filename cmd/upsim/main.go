// Command upsim is the command-line front end of the UPSIM library: it
// loads UML model files and Figure-3 mapping files, inspects topologies,
// discovers requester→provider paths, generates user-perceived service
// infrastructure models and runs availability analysis.
//
// Usage:
//
//	upsim casestudy  -model usi.xml -mapping table1.xml
//	upsim inventory  -model usi.xml -diagram infrastructure
//	upsim paths      -model usi.xml -diagram infrastructure -from t1 -to printS \
//	                 [-k 5] [-cost hops|throughput] [-trace]
//	upsim generate   -model usi.xml -diagram infrastructure -service printing \
//	                 -mapping table1.xml -name upsim-t1-p2 [-dot out.dot] [-out model2.xml] [-trace]
//	upsim avail      -model usi.xml -diagram infrastructure -service printing \
//	                 -mapping table1.xml [-formula1] [-mc 200000] [-trace]
//	upsim explain    -model usi.xml -diagram infrastructure -service printing \
//	                 -mapping table1.xml [-top 5] [-formula1] [-legacy] [-cutlimit N] [-json] [-trace]
//	upsim explain    -casestudy
//	upsim dot        -model usi.xml -diagram infrastructure
//	upsim lint       -model usi.xml -diagram infrastructure -service printing \
//	                 -mapping table1.xml [-json]
//	upsim lint       -casestudy
//	upsim batch      -req requests.json [-workers 4] [-cache-size 128] [-out resp.json]
//	upsim whatif     -model usi.xml -diagram infrastructure -service printing \
//	                 -mapping table1.xml [-fail p2,d4] [-fail-link t1--e1] [-top 10] [-json] [-trace]
//	upsim whatif     -casestudy -fail printS
//
// The -trace flag on paths, generate, avail and explain prints the pipeline
// span tree (one span per methodology step, with wall times and attributes)
// after the normal output; for explain the tree includes the
// explain.report/explain.paths/explain.attribution spans.
//
// The explain subcommand renders the provenance & attribution report: where
// every availability number comes from — per-service path statistics, the
// discovery tree rooted at the requester, the top minimal cut sets by
// unavailability contribution, component Birnbaum / Fussell–Vesely
// importance rankings and class-level sensitivities. The numbers are
// bit-identical to POST /api/v1/explain for the same inputs.
//
// The lint subcommand runs every built-in static-analysis rule over the
// model artifacts and exits non-zero when any error-severity finding exists,
// so it slots directly into CI pipelines; -json emits the machine-readable
// report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"upsim"
	"upsim/internal/topology"
	"upsim/internal/uml"
	"upsim/internal/vtcl"
	"upsim/internal/workspace"
)

// traceSpan opens a root span when -trace is set and returns a print func
// the subcommand defers: it ends the span and writes the rendered tree with
// per-stage wall times. Without -trace both returns are cheap no-ops.
func traceSpan(enabled bool, name string) (context.Context, func()) {
	ctx := context.Background()
	if !enabled {
		return ctx, func() {}
	}
	ctx, span := upsim.StartSpan(ctx, name)
	return ctx, func() {
		span.End()
		fmt.Print(span.Render())
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "upsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "casestudy":
		return cmdCaseStudy(args[1:])
	case "inventory":
		return cmdInventory(args[1:])
	case "paths":
		return cmdPaths(args[1:])
	case "generate":
		return cmdGenerate(args[1:])
	case "avail":
		return cmdAvail(args[1:])
	case "explain":
		return cmdExplain(args[1:])
	case "dot":
		return cmdDot(args[1:])
	case "lint":
		return cmdLint(args[1:])
	case "query":
		return cmdQuery(args[1:])
	case "rbd":
		return cmdRBD(args[1:])
	case "project":
		return cmdProject(args[1:])
	case "batch":
		return cmdBatch(args[1:])
	case "whatif":
		return cmdWhatIf(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: upsim <command> [flags]

commands:
  casestudy   write the built-in USI case-study model and Table I mapping
  inventory   summarise a model file (classes, diagrams, services)
  paths       enumerate all simple paths between two components (-k for the k cheapest)
  generate    generate a UPSIM for a service, mapping and perspective
  avail       user-perceived availability analysis for a service mapping
  explain     provenance & attribution report: paths, discovery trees, cut sets, importances
  dot         render an object diagram as Graphviz DOT
  lint        static-analysis of model, service and mapping (non-zero exit on errors)
  query       run a VTCL-style pattern against the imported model space
  rbd         generate and render the reliability block diagram of a UPSIM
  project     init or inspect a workspace directory (model + mappings + patterns)
  batch       execute a JSON batch request file through the shared generation cache
  whatif      failure impact and critical-component ranking on the live topology

run 'upsim <command> -h' for per-command flags`)
}

func loadModel(path string) (*upsim.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return upsim.ReadModel(f)
}

func loadMapping(path string) (*upsim.Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return upsim.ReadMapping(f)
}

// serviceInput is the model, diagram and composite service a subcommand
// generates a UPSIM for, with the mapping of its atomic services.
type serviceInput struct {
	model   *upsim.Model
	diagram string
	name    string // activity name of the composite service
	svc     *upsim.Composite
	mapping *upsim.Mapping
}

// serviceFlags are the -model, -diagram, -service and -mapping flags (and
// -casestudy, where a subcommand offers it) of the subcommands that
// generate one service's UPSIM.
type serviceFlags struct {
	cmd                              string
	model, diagram, service, mapping *string
	caseStudy                        *bool
}

// addServiceFlags registers the service flags on fs; a non-empty
// caseStudyUsage also registers -casestudy with that usage text.
func addServiceFlags(fs *flag.FlagSet, caseStudyUsage string) *serviceFlags {
	f := &serviceFlags{
		cmd:     fs.Name(),
		model:   fs.String("model", "", "model XML file"),
		diagram: fs.String("diagram", "", "infrastructure object diagram name"),
		service: fs.String("service", "", "activity name of the composite service"),
		mapping: fs.String("mapping", "", "service mapping XML file"),
	}
	if caseStudyUsage != "" {
		f.caseStudy = fs.Bool("casestudy", false, caseStudyUsage)
	}
	return f
}

// load checks the required flags, reads the model, wraps the named activity
// as a composite service and reads the mapping. -casestudy takes the
// built-in USI printing service and Table I mapping instead; -service then
// only names the result (default "printing").
func (f *serviceFlags) load() (*serviceInput, error) {
	if f.caseStudy != nil && *f.caseStudy {
		m, err := upsim.USIModel()
		if err != nil {
			return nil, err
		}
		svc, err := upsim.USIPrintingService(m)
		if err != nil {
			return nil, err
		}
		name := *f.service
		if name == "" {
			name = "printing"
		}
		return &serviceInput{m, upsim.USIDiagramName, name, svc, upsim.USITableIMapping()}, nil
	}
	if *f.model == "" || *f.diagram == "" || *f.service == "" || *f.mapping == "" {
		alt := ""
		if f.caseStudy != nil {
			alt = " (or use -casestudy)"
		}
		return nil, fmt.Errorf("%s: -model, -diagram, -service and -mapping are required%s", f.cmd, alt)
	}
	m, err := loadModel(*f.model)
	if err != nil {
		return nil, err
	}
	act, ok := m.Activity(*f.service)
	if !ok {
		return nil, fmt.Errorf("%s: model has no activity %q", f.cmd, *f.service)
	}
	svc, err := upsim.ServiceFromActivity(act)
	if err != nil {
		return nil, err
	}
	mp, err := loadMapping(*f.mapping)
	if err != nil {
		return nil, err
	}
	return &serviceInput{m, *f.diagram, *f.service, svc, mp}, nil
}

func cmdCaseStudy(args []string) error {
	fs := flag.NewFlagSet("casestudy", flag.ContinueOnError)
	modelOut := fs.String("model", "usi.xml", "output path for the USI model")
	mappingOut := fs.String("mapping", "table1.xml", "output path for the Table I mapping")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := upsim.USIModel()
	if err != nil {
		return err
	}
	if _, err := upsim.USIPrintingService(m); err != nil {
		return err
	}
	if _, err := upsim.USIBackupService(m); err != nil {
		return err
	}
	mf, err := os.Create(*modelOut)
	if err != nil {
		return err
	}
	defer mf.Close()
	if err := upsim.WriteModel(mf, m); err != nil {
		return err
	}
	pf, err := os.Create(*mappingOut)
	if err != nil {
		return err
	}
	defer pf.Close()
	if err := upsim.WriteMapping(pf, upsim.USITableIMapping()); err != nil {
		return err
	}
	fmt.Printf("wrote %s (model with services %q, %q) and %s (Table I mapping)\n",
		*modelOut, "printing", "backup", *mappingOut)
	return nil
}

func cmdInventory(args []string) error {
	fs := flag.NewFlagSet("inventory", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model XML file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("inventory: -model is required")
	}
	m, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	fmt.Printf("model %q\n", m.Name())
	fmt.Printf("profiles: %d\n", len(m.Profiles()))
	for _, p := range m.Profiles() {
		fmt.Printf("  %s (%d stereotypes)\n", p.Name(), len(p.Stereotypes()))
	}
	fmt.Printf("classes: %d\n", len(m.Classes()))
	for _, c := range m.Classes() {
		mtbf, _ := c.Property("MTBF")
		mttr, _ := c.Property("MTTR")
		fmt.Printf("  %-30s MTBF=%-10s MTTR=%s\n", c.String(), mtbf.String(), mttr.String())
	}
	fmt.Printf("associations: %d\n", len(m.Associations()))
	fmt.Printf("object diagrams: %d\n", len(m.Diagrams()))
	for _, d := range m.Diagrams() {
		fmt.Printf("  %-30s %d instances, %d links\n", d.Name(), d.NumInstances(), d.NumLinks())
	}
	fmt.Printf("activities: %d\n", len(m.Activities()))
	for _, a := range m.Activities() {
		fmt.Printf("  %-30s actions: %v\n", a.Name(), a.ActionNames())
	}
	return nil
}

func cmdPaths(args []string) error {
	fs := flag.NewFlagSet("paths", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model XML file")
	diagram := fs.String("diagram", "", "object diagram name")
	from := fs.String("from", "", "requester component")
	to := fs.String("to", "", "provider component")
	maxDepth := fs.Int("maxdepth", 0, "bound path length in hops (0 = unbounded)")
	maxPaths := fs.Int("maxpaths", 0, "stop after N paths (0 = unbounded)")
	k := fs.Int("k", 0, "return the k cheapest paths instead of enumerating all (0 = enumerate)")
	cost := fs.String("cost", "", `ranking metric for -k: "hops" (default) or "throughput"`)
	trace := fs.Bool("trace", false, "print the span tree with per-stage timings after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *diagram == "" || *from == "" || *to == "" {
		return fmt.Errorf("paths: -model, -diagram, -from and -to are required")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"k", *k}, {"maxdepth", *maxDepth}, {"maxpaths", *maxPaths}} {
		if f.v < 0 {
			return fmt.Errorf("paths: -%s must be >= 0", f.name)
		}
	}
	metric, err := upsim.ParseCostMetric(*cost)
	if err != nil {
		return fmt.Errorf("paths: %w", err)
	}
	m, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	ctx, printTrace := traceSpan(*trace, "upsim.paths")
	gen, err := upsim.NewGeneratorContext(ctx, m, *diagram)
	if err != nil {
		return err
	}
	if *k > 0 {
		// Ranked discovery runs on the generator's compiled kernel, which
		// carries the stereotype cost view resolved at compile time.
		_, disc := upsim.StartSpan(ctx, "step7.kbest")
		paths, stats, err := gen.Compiled().KShortest(*from, *to,
			upsim.PathOptions{K: *k, CostMetric: metric})
		disc.SetAttr("paths", stats.Paths)
		disc.SetAttr("edge_visits", stats.EdgeVisits)
		disc.End()
		if err != nil {
			return err
		}
		for _, p := range paths {
			fmt.Printf("%-10.4g %s\n", gen.Compiled().PathCost(metric, p), p)
		}
		fmt.Printf("# %d paths by %s cost, %d nodes visited, %d edge visits\n",
			len(paths), metric, stats.NodeVisits, stats.EdgeVisits)
		printTrace()
		return nil
	}
	// Enumerate on the compiled kernel, as the server's /api/v1/paths does,
	// so both report the same search effort.
	_, disc := upsim.StartSpan(ctx, "step7.pathdisc")
	paths, stats, err := gen.Compiled().AllPaths(*from, *to,
		upsim.PathOptions{MaxDepth: *maxDepth, MaxPaths: *maxPaths})
	disc.SetAttr("paths", stats.Paths)
	disc.SetAttr("edge_visits", stats.EdgeVisits)
	disc.End()
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Println(p)
	}
	fmt.Printf("# %d paths, %d nodes visited, %d edge visits, max stack %d, pruned %d\n",
		stats.Paths, stats.NodeVisits, stats.EdgeVisits, stats.MaxStack, stats.Pruned)
	printTrace()
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	sf := addServiceFlags(fs, "")
	name := fs.String("name", "upsim", "name of the generated UPSIM diagram")
	dotOut := fs.String("dot", "", "optional DOT output path for the UPSIM")
	modelOut := fs.String("out", "", "optional path to write the model including the UPSIM diagram")
	trace := fs.Bool("trace", false, "print the span tree with per-stage timings after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := sf.load()
	if err != nil {
		return err
	}
	ctx, printTrace := traceSpan(*trace, "upsim.generate")
	gen, err := upsim.NewGeneratorContext(ctx, in.model, in.diagram)
	if err != nil {
		return err
	}
	res, err := gen.GenerateContext(ctx, in.svc, in.mapping, *name, upsim.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("UPSIM %q: %d components, %d links, %d paths\n",
		*name, res.Graph.NumNodes(), res.Graph.NumEdges(), res.TotalPaths)
	for _, inst := range res.UPSIM.Instances() {
		fmt.Println("  ", inst.Signature())
	}
	for _, sp := range res.Services {
		fmt.Printf("  service %-12s %s->%s: %d paths, %d nodes visited, %d edge visits\n",
			sp.AtomicService, sp.Requester, sp.Provider,
			sp.Stats.Paths, sp.Stats.NodeVisits, sp.Stats.EdgeVisits)
	}
	printTrace()
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(upsim.ToDOT(res.Graph, *name)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *dotOut)
	}
	if *modelOut != "" {
		f, err := os.Create(*modelOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := upsim.WriteModel(f, in.model); err != nil {
			return err
		}
		fmt.Println("wrote", *modelOut)
	}
	return nil
}

func cmdAvail(args []string) error {
	fs := flag.NewFlagSet("avail", flag.ContinueOnError)
	sf := addServiceFlags(fs, "")
	formula1 := fs.Bool("formula1", false, "use the paper's Formula 1 instead of the exact component availability")
	mcSamples := fs.Int("mc", 200000, "Monte-Carlo sample count")
	seed := fs.Int64("seed", 1, "Monte-Carlo seed")
	trace := fs.Bool("trace", false, "print the span tree with per-stage timings after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := sf.load()
	if err != nil {
		return err
	}
	ctx, printTrace := traceSpan(*trace, "upsim.avail")
	gen, err := upsim.NewGeneratorContext(ctx, in.model, in.diagram)
	if err != nil {
		return err
	}
	res, err := gen.GenerateContext(ctx, in.svc, in.mapping, "avail-analysis", upsim.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("UPSIM: %d components, %d links, %d paths, %d expansions pruned\n",
		res.Graph.NumNodes(), res.Graph.NumEdges(), res.TotalPaths, res.Pruned)
	model := upsim.ModelExact
	if *formula1 {
		model = upsim.ModelFormula1
	}
	_, cs, _, err := upsim.CompiledStructureOf(res, model)
	if err != nil {
		return err
	}
	fmt.Printf("compiled kernel: %d components interned, %d-word bitsets\n",
		cs.NumComponents(), cs.Words())
	rep, err := upsim.AnalyzeContext(ctx, res, model, *mcSamples, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("service %q, %d UPSIM components (%s component model)\n",
		in.name, rep.Components, model)
	fmt.Printf("exact:        %.10f\n", rep.Exact)
	fmt.Printf("naive RBD:    %.10f\n", rep.RBDApprox)
	fmt.Printf("fault tree:   %.10f\n", rep.FTApprox)
	fmt.Printf("Monte Carlo:  %.6f ± %.6f (%d samples)\n", rep.MonteCarlo, rep.MCStdErr, *mcSamples)
	fmt.Printf("downtime:     %.1f hours/year\n", rep.DowntimePerYearHours)
	printTrace()
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	sf := addServiceFlags(fs, "explain the built-in USI case study (printing service, Table I mapping)")
	top := fs.Int("top", 5, "rows per ranking table (0 = all)")
	formula1 := fs.Bool("formula1", false, "use the paper's Formula 1 instead of the exact component availability")
	legacy := fs.Bool("legacy", false, "attribute through the legacy map-based kernel (numbers are identical)")
	cutLimit := fs.Int("cutlimit", 0, "cut-set expansion budget (0 = default)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	trace := fs.Bool("trace", false, "print the span tree with per-stage timings after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := sf.load()
	if err != nil {
		return err
	}
	ctx, printTrace := traceSpan(*trace, "upsim.explain")
	gen, err := upsim.NewGeneratorContext(ctx, in.model, in.diagram)
	if err != nil {
		return err
	}
	res, err := gen.GenerateContext(ctx, in.svc, in.mapping, "explain", upsim.Options{})
	if err != nil {
		return err
	}
	model := upsim.ModelExact
	if *formula1 {
		model = upsim.ModelFormula1
	}
	rep, err := upsim.Explain(ctx, res, upsim.ExplainOptions{
		Legacy:   *legacy,
		Model:    model,
		TopN:     *top,
		CutLimit: *cutLimit,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		printTrace()
		return nil
	}
	renderExplain(os.Stdout, rep)
	printTrace()
	return nil
}

// renderExplain writes the human-readable provenance & attribution report:
// per-service path statistics and discovery trees, then the ranked
// attribution tables. The numbers come straight from the ExplainReport, so
// they match POST /api/v1/explain for the same inputs.
func renderExplain(w io.Writer, rep *upsim.ExplainReport) {
	fmt.Fprintf(w, "explain %q (%s kernel, %s component model)\n", rep.Name, rep.Kernel, rep.Model)
	fmt.Fprintf(w, "paths: %d total (%d direct, %d transitive), length %d..%d, mean %.2f\n",
		rep.Stats.Count, rep.Stats.Direct, rep.Stats.Transitive,
		rep.Stats.MinLength, rep.Stats.MaxLength, rep.Stats.MeanLength)
	if rep.Truncated {
		fmt.Fprintln(w, "WARNING: discovery truncated at MaxPaths; provenance is a lower bound")
	}
	for _, svc := range rep.Services {
		fmt.Fprintf(w, "\nservice %q  %s -> %s\n", svc.AtomicService, svc.Requester, svc.Provider)
		st := svc.Stats
		fmt.Fprintf(w, "  paths=%d direct=%d transitive=%d depth=%d..%d mean=%.2f\n",
			st.Count, st.Direct, st.Transitive, st.MinLength, st.MaxLength, st.MeanLength)
		depths := make([]int, 0, len(st.DepthHistogram))
		for d := range st.DepthHistogram {
			depths = append(depths, d)
		}
		sort.Ints(depths)
		fmt.Fprint(w, "  depth histogram:")
		for _, d := range depths {
			fmt.Fprintf(w, " %d:%d", d, st.DepthHistogram[d])
		}
		fmt.Fprintln(w)
		for _, p := range svc.Paths {
			fmt.Fprintf(w, "  path %d (%s, %d hops, cost %.4f, bottleneck %.0f Mbps): %s\n",
				p.Index, p.Type, p.Length, p.Cost, p.BottleneckMbps, strings.Join(p.Nodes, "—"))
		}
		if svc.Tree != nil {
			fmt.Fprintln(w, "  discovery tree:")
			for _, line := range strings.Split(strings.TrimRight(svc.Tree.Render(), "\n"), "\n") {
				fmt.Fprintf(w, "    %s\n", line)
			}
		}
	}
	attr := rep.Attribution
	if attr == nil {
		return
	}
	fmt.Fprintf(w, "\navailability %.10f (unavailability %.3e)\n", attr.Availability, attr.Unavailability)
	fmt.Fprintf(w, "\ntop %d of %d minimal cut sets by unavailability contribution:\n",
		len(attr.CutSets), attr.CutSetsTotal)
	for i, cs := range attr.CutSets {
		fmt.Fprintf(w, "  %2d. %6.2f%%  %.3e  {%s}\n",
			i+1, cs.Share*100, cs.Unavailability, strings.Join(cs.Components, ", "))
	}
	fmt.Fprintf(w, "\ntop %d of %d components by Birnbaum importance:\n",
		len(attr.Components), attr.ComponentsTotal)
	fmt.Fprintf(w, "  %-28s %-12s %-14s %-12s %s\n", "component", "class", "availability", "birnbaum", "fussell-vesely")
	for _, ci := range attr.Components {
		fmt.Fprintf(w, "  %-28s %-12s %.10f   %.4e  %.4e\n",
			ci.Component, ci.Class, ci.Availability, ci.Birnbaum, ci.FussellVesely)
	}
	fmt.Fprintln(w, "\nclass sensitivities (per instance-hour):")
	for _, cr := range attr.Classes {
		fmt.Fprintf(w, "  %-12s instances=%-3d dA/dMTBF=%.4e  dA/dMTTR=%.4e\n",
			cr.Class, cr.Instances, cr.DAvailDMTBF, cr.DAvailDMTTR)
	}
}

func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model XML file")
	diagram := fs.String("diagram", "", "infrastructure object diagram name (omit for a model-only lint)")
	svcName := fs.String("service", "", "activity name of the composite service (optional)")
	mappingPath := fs.String("mapping", "", "service mapping XML file (optional)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	caseStudy := fs.Bool("casestudy", false, "lint the built-in USI case study (printing service, Table I mapping)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		m   *upsim.Model
		svc *upsim.Composite
		mp  *upsim.Mapping
		err error
	)
	if *caseStudy {
		if m, err = upsim.USIModel(); err != nil {
			return err
		}
		if svc, err = upsim.USIPrintingService(m); err != nil {
			return err
		}
		if _, err = upsim.USIBackupService(m); err != nil {
			return err
		}
		mp = upsim.USITableIMapping()
		*diagram = upsim.USIDiagramName
	} else {
		if *modelPath == "" {
			return fmt.Errorf("lint: -model is required (or use -casestudy)")
		}
		if m, err = loadModel(*modelPath); err != nil {
			return err
		}
		if *svcName != "" {
			act, ok := m.Activity(*svcName)
			if !ok {
				return fmt.Errorf("lint: model has no activity %q", *svcName)
			}
			// A structurally broken activity cannot be wrapped as a composite
			// service; lint the model anyway (the model-validate rule reports
			// the defect) and skip only the mapping-coverage rules.
			if svc, err = upsim.ServiceFromActivity(act); err != nil {
				fmt.Fprintf(os.Stderr, "upsim: lint: service %q is invalid (%v); mapping-coverage rules skipped\n",
					*svcName, err)
				svc = nil
			}
		}
		if *mappingPath != "" {
			if mp, err = loadMapping(*mappingPath); err != nil {
				return err
			}
		}
	}
	rep, err := upsim.Lint(m, *diagram, svc, mp)
	if err != nil {
		return err
	}
	if *jsonOut {
		err = rep.EncodeJSON(os.Stdout)
	} else {
		err = rep.Render(os.Stdout)
	}
	if err != nil {
		return err
	}
	if rep.HasErrors() {
		return fmt.Errorf("lint: %s", rep.Summary())
	}
	return nil
}

func cmdProject(args []string) error {
	fs := flag.NewFlagSet("project", flag.ContinueOnError)
	dir := fs.String("dir", ".", "workspace directory")
	doInit := fs.Bool("init", false, "initialise the directory with the built-in case study")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *doInit {
		m, err := upsim.USIModel()
		if err != nil {
			return err
		}
		if _, err := upsim.USIPrintingService(m); err != nil {
			return err
		}
		if _, err := upsim.USIBackupService(m); err != nil {
			return err
		}
		w, err := workspace.Init(*dir, m)
		if err != nil {
			return err
		}
		if err := w.SaveMapping("t1-p2", upsim.USITableIMapping()); err != nil {
			return err
		}
		if err := w.SaveMapping("t15-p3", upsim.USIT15P3Mapping()); err != nil {
			return err
		}
		if err := w.SaveMapping("backup-t7", upsim.USIBackupMapping()); err != nil {
			return err
		}
		fmt.Println("initialised", w.Summary())
		return nil
	}
	w, err := workspace.Load(*dir)
	if err != nil {
		return err
	}
	fmt.Println(w.Summary())
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model XML file")
	diagram := fs.String("diagram", "", "object diagram name (anchors the import)")
	patternPath := fs.String("patterns", "", "VTCL pattern file")
	name := fs.String("name", "", "pattern to run (default: first in the file)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *diagram == "" || *patternPath == "" {
		return fmt.Errorf("query: -model, -diagram and -patterns are required")
	}
	m, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	gen, err := upsim.NewGenerator(m, *diagram)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(*patternPath)
	if err != nil {
		return err
	}
	pats, err := vtcl.Parse(string(src))
	if err != nil {
		return err
	}
	pat := pats[0]
	if *name != "" {
		pat = nil
		for _, p := range pats {
			if p.Name == *name {
				pat = p
				break
			}
		}
		if pat == nil {
			return fmt.Errorf("query: pattern %q not in %s", *name, *patternPath)
		}
	}
	space, err := gen.Space()
	if err != nil {
		return err
	}
	matches, err := pat.Match(space, nil)
	if err != nil {
		return err
	}
	for _, b := range matches {
		for i, v := range pat.Vars {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%s=%s", v, b[v].FQN())
		}
		fmt.Println()
	}
	fmt.Printf("# pattern %q: %d matches\n", pat.Name, len(matches))
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model XML file")
	diagram := fs.String("diagram", "", "object diagram name (kind=object)")
	kind := fs.String("kind", "object", "diagram kind: object, classes or activity")
	activity := fs.String("activity", "", "activity name (kind=activity)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("dot: -model is required")
	}
	m, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	switch *kind {
	case "object":
		if *diagram == "" {
			return fmt.Errorf("dot: -diagram is required for kind=object")
		}
		d, ok := m.Diagram(*diagram)
		if !ok {
			return fmt.Errorf("dot: model has no object diagram %q", *diagram)
		}
		fmt.Print(upsim.ToDOT(topology.FromObjectDiagram(d), *diagram))
	case "classes":
		fmt.Print(uml.ClassDiagramDOT(m))
	case "activity":
		if *activity == "" {
			return fmt.Errorf("dot: -activity is required for kind=activity")
		}
		act, ok := m.Activity(*activity)
		if !ok {
			return fmt.Errorf("dot: model has no activity %q", *activity)
		}
		fmt.Print(uml.ActivityDOT(act))
	default:
		return fmt.Errorf("dot: unknown kind %q (want object, classes or activity)", *kind)
	}
	return nil
}

func cmdRBD(args []string) error {
	fs := flag.NewFlagSet("rbd", flag.ContinueOnError)
	sf := addServiceFlags(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := sf.load()
	if err != nil {
		return err
	}
	gen, err := upsim.NewGenerator(in.model, in.diagram)
	if err != nil {
		return err
	}
	res, err := gen.Generate(in.svc, in.mapping, "rbd", upsim.Options{})
	if err != nil {
		return err
	}
	avail := map[string]float64{}
	for _, inst := range res.Source.Instances() {
		mtbf, ok := inst.Property("MTBF")
		if !ok {
			return fmt.Errorf("rbd: component %q has no MTBF (availability profile missing)", inst.Name())
		}
		mttr, ok := inst.Property("MTTR")
		if !ok {
			return fmt.Errorf("rbd: component %q has no MTTR", inst.Name())
		}
		a, err := upsim.Availability(mtbf.AsReal(), mttr.AsReal())
		if err != nil {
			return err
		}
		avail[inst.Name()] = a
	}
	root, block, err := upsim.GenerateRBD(gen, "rbd", avail)
	if err != nil {
		return err
	}
	fmt.Print(upsim.RenderRBD(root))
	a, err := block.Availability()
	if err != nil {
		return err
	}
	fmt.Printf("# device-only RBD availability (independence assumption): %.10f\n", a)
	fmt.Println("# use 'upsim avail' for the exact analysis including connectors")
	return nil
}

// cmdWhatIf drives the live-topology what-if engine from the command line:
// generate the service, register it with the engine, and answer "what if
// these components or links fail?" plus the critical-component ranking.
// The numbers match POST /api/v1/whatif for the same inputs.
func cmdWhatIf(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	sf := addServiceFlags(fs, "analyse the built-in USI case study (printing service, Table I mapping)")
	fail := fs.String("fail", "", "comma-separated failed components (node names or a--b#edge link ids)")
	failLink := fs.String("fail-link", "", "comma-separated failed links by endpoints (a--b, all parallel edges)")
	top := fs.Int("top", 10, "rows of the critical-component ranking (0 = all)")
	formula1 := fs.Bool("formula1", false, "use the paper's Formula 1 instead of the exact component availability")
	jsonOut := fs.Bool("json", false, "emit the reports as JSON instead of text")
	trace := fs.Bool("trace", false, "print the span tree with per-stage timings after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := sf.load()
	if err != nil {
		return err
	}
	ctx, printTrace := traceSpan(*trace, "upsim.whatif")
	gen, err := upsim.NewGeneratorContext(ctx, in.model, in.diagram)
	if err != nil {
		return err
	}
	res, err := gen.GenerateContext(ctx, in.svc, in.mapping, in.name, upsim.Options{})
	if err != nil {
		return err
	}
	model := upsim.ModelExact
	if *formula1 {
		model = upsim.ModelFormula1
	}
	eng := upsim.NewWhatIfEngine(gen.Graph(), nil)
	if err := eng.Register(in.name, "", res, model); err != nil {
		return err
	}

	failure := upsim.WhatIfFailure{}
	for _, c := range strings.Split(*fail, ",") {
		if c = strings.TrimSpace(c); c != "" {
			failure.Components = append(failure.Components, c)
		}
	}
	for _, l := range strings.Split(*failLink, ",") {
		if l = strings.TrimSpace(l); l != "" {
			failure.Links = append(failure.Links, l)
		}
	}
	var impact *upsim.WhatIfImpact
	if len(failure.Components) > 0 || len(failure.Links) > 0 {
		if impact, err = eng.Impact(failure); err != nil {
			return err
		}
	}
	crit, err := eng.Critical(*top)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Impact   *upsim.WhatIfImpact       `json:"impact,omitempty"`
			Critical []upsim.CriticalComponent `json:"critical"`
		}{impact, crit}
		if err := enc.Encode(out); err != nil {
			return err
		}
		printTrace()
		return nil
	}
	if impact != nil {
		fmt.Printf("failure impact (failed: %s)\n", strings.Join(impact.Failed, ", "))
		for _, d := range impact.Services {
			switch {
			case d.Dead:
				fmt.Printf("  %-16s %.10f -> DEAD (service cannot work)\n", d.Service, d.Baseline)
			case d.Affected:
				fmt.Printf("  %-16s %.10f -> %.10f (delta %+.3e)\n", d.Service, d.Baseline, d.Failed, d.Delta)
			default:
				fmt.Printf("  %-16s %.10f (unaffected)\n", d.Service, d.Baseline)
			}
		}
		fmt.Println()
	}
	fmt.Printf("critical components (top %d):\n", len(crit))
	fmt.Printf("  %-28s %-12s %-5s %-6s %-12s %s\n", "component", "class", "spof", "pairs", "birnbaum", "services")
	for _, cc := range crit {
		spof := "-"
		if cc.SinglePointOfFailure {
			spof = "YES"
		}
		fmt.Printf("  %-28s %-12s %-5s %-6d %.4e   %s\n",
			cc.Component, cc.Class, spof, cc.PairCuts, cc.Birnbaum, strings.Join(cc.Services, ","))
	}
	printTrace()
	return nil
}
