// Package core implements the paper's primary contribution: the automated
// generation of user-perceived service infrastructure models (UPSIMs).
// Given an ICT infrastructure model (UML class + object diagrams), a
// composite service description (UML activity diagram) and a service mapping
// (XML pairs of requester and provider per atomic service), the Generator
// executes Steps 5–8 of the methodology (Section V-B):
//
//  5. import the UML models into the VPM model space,
//  6. import the service mapping pairs with the custom importer,
//  7. discover all simple paths between requester and provider of every
//     atomic service and store them in a reserved subtree of the model
//     space,
//  8. merge the paths into a single UML object diagram — the UPSIM
//     (Definition 2) — preserving the instance signatures and therefore all
//     static class properties for downstream dependability analysis.
//
// The pipeline itself runs on the UML model: Step 7 searches the object
// diagram's compiled topology, and Steps 5 and 6 check the model and the
// mapping pairs with exactly the errors the importers would report. A
// generation is a function of its request: it reads only what NewGenerator
// built and changes neither the model nor the generator. The model space
// of Steps 5–7 is the view the paper's VIATRA2 tooling reads; a Generator
// builds it on the first Space call, and Record adds a generation's
// mapping import and stored paths to it, and its UPSIM diagram to the model.
package core

import (
	"context"
	"fmt"
	"sync"

	"upsim/internal/cache"
	"upsim/internal/importers"
	"upsim/internal/lint"
	"upsim/internal/mapping"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/topology"
	"upsim/internal/uml"
	"upsim/internal/vpm"
)

// MergeSemantics selects how discovered paths become the UPSIM topology.
type MergeSemantics uint8

const (
	// MergeInduced keeps every infrastructure link whose both endpoints
	// appear in some path — the paper's Step 8 "filter on the complete
	// topology, where only nodes which appear at least once in the
	// discovered paths are preserved" (Section VI-H).
	MergeInduced MergeSemantics = iota
	// MergeTraversed keeps only links actually traversed by some path, an
	// alternative semantics used by the merge ablation.
	MergeTraversed
)

// String returns the merge semantics name.
func (m MergeSemantics) String() string {
	switch m {
	case MergeInduced:
		return "induced"
	case MergeTraversed:
		return "traversed"
	}
	return fmt.Sprintf("MergeSemantics(%d)", uint8(m))
}

// LintMode controls the pre-flight lint gate of the generator: whether the
// built-in rule registry (internal/lint) runs over the model, service and
// mapping before Step 6, and what happens to its findings.
type LintMode uint8

const (
	// LintOff skips the pre-flight lint entirely (the zero value, matching
	// the paper's pipeline, which assumes well-formed inputs).
	LintOff LintMode = iota
	// LintWarn runs the linter and logs every warning- and error-severity
	// finding through obs.Logger, but never stops the pipeline.
	LintWarn
	// LintFail runs the linter and aborts the generation with a *lint.Error
	// (carrying the full report) when any error-severity finding exists.
	LintFail
)

// String returns the lint mode name.
func (m LintMode) String() string {
	switch m {
	case LintOff:
		return "off"
	case LintWarn:
		return "warn"
	case LintFail:
		return "fail"
	}
	return fmt.Sprintf("LintMode(%d)", uint8(m))
}

// Options tunes the generator. The zero value reproduces the paper: DFS all
// simple paths, induced merge (MergeInduced), unbounded enumeration,
// disconnected pairs are errors, and no lint gate (LintOff). Every default
// below is asserted by TestOptionsZeroValueDefaults.
//
// The redundancy ablation, which drops the redundant paths Definition 2
// keeps, is Paths.K = 1: one minimum-hop path per atomic service.
type Options struct {
	// Merge selects the Step 8 merge semantics. The zero value MergeInduced
	// is the paper's Section VI-H filter (keep every infrastructure link
	// whose both endpoints appear in some path).
	Merge MergeSemantics
	// Paths tunes Step 7: depth/count bounds on the recursive DFS, or
	// ranked top-k discovery when K > 0. The zero value enumerates every
	// simple path, parallel links included.
	Paths pathdisc.Options
	// AllowDisconnected produces a partial UPSIM instead of failing when an
	// atomic service has no path between requester and provider. The
	// default (false) makes a disconnected pair an error.
	AllowDisconnected bool
	// Lint selects the pre-flight lint gate. The zero value LintOff skips
	// linting entirely, matching the paper's pipeline; LintWarn logs
	// findings, LintFail aborts on error-severity findings.
	Lint LintMode
}

// ServicePaths records Step 7 output for one atomic service.
type ServicePaths struct {
	AtomicService string
	Requester     string
	Provider      string
	Paths         []pathdisc.Path
	Stats         pathdisc.Stats
}

// Result is the outcome of one UPSIM generation.
type Result struct {
	// Name is the UPSIM (and diagram) name.
	Name string
	// UPSIM is the generated UML object diagram over the source model's
	// classes; its instances share the classifiers of the infrastructure so
	// every dependability property remains reachable (Section V-E). The
	// model lists it only once Generator.Record attached it.
	UPSIM *uml.ObjectDiagram
	// Source is the infrastructure object diagram the UPSIM was generated
	// from. Path edge IDs in Services index into Source.Links().
	Source *uml.ObjectDiagram
	// Graph is the topology view of the UPSIM.
	Graph *topology.Graph
	// Services holds the per-atomic-service path sets in execution order.
	Services []ServicePaths
	// TotalPaths is the number of discovered paths over all atomic
	// services.
	TotalPaths int
	// EdgeVisits aggregates the search effort of Step 7.
	EdgeVisits int
	// Pruned aggregates the expansions the compiled kernel's reachability
	// pass skipped in Step 7 (always 0 for ranked discovery).
	Pruned int
	// Key is the generation's content address (CacheKey) when it was
	// produced through an attached cache, and empty otherwise.
	Key string

	pairs []mapping.Pair // Step 6's copy of the mapping pairs, which Record imports
}

// PathsFor returns the discovered paths of one atomic service.
func (r *Result) PathsFor(atomicService string) ([]pathdisc.Path, bool) {
	for _, sp := range r.Services {
		if sp.AtomicService == atomicService {
			return sp.Paths, true
		}
	}
	return nil, false
}

// NodeNames returns the sorted node names of the UPSIM.
func (r *Result) NodeNames() []string { return r.Graph.NodeNames() }

// Generator runs the Step 5–8 pipeline for one infrastructure model. A
// Generator is reusable: Generate may be called many times with different
// services, mappings and perspectives against the same infrastructure,
// which is exactly the dynamicity argument of Section V-A3 (only the
// mapping changes between user perspectives).
//
// The model space is built on the first Space call, not by NewGenerator:
// generation itself never reads it. It imports the model's elements as
// NewGenerator listed them (importers.View), so elements added to the
// model later — recorded UPSIM diagrams included — stay out of it, as they
// stayed out of an import at construction.
//
// A Generator is safe for concurrent use by Generate, CacheKey, WithCache
// and Space: Generate holds no lock and writes nothing the generator or
// its model holds, so concurrent generations run in parallel, and — with a
// cache attached (WithCache) — concurrent identical calls collapse into
// one computation via singleflight and share the cached Result. Record
// writes the model and the space; it must not run concurrently with
// Generate or with readers of the space.
type Generator struct {
	model       *uml.Model
	diagramName string
	diagram     *uml.ObjectDiagram // the infrastructure diagram
	diagramFQN  string             // its model-space FQN, which Step 6 errors name
	view        importers.View     // the model's elements at construction: what Step 5 imports
	graph       *topology.Graph
	compiled    *pathdisc.Compiled // CSR kernel, built once per model, immutable

	mu          sync.Mutex      // guards the fields below; never held across a pipeline step
	space       *vpm.ModelSpace // built by the first Space call
	recorded    []*Result       // Record's generations, in order: what a first Space call replays
	cache       *cache.Cache
	modelDigest string // canonical model hash, taken by the first CacheKey
	digestErr   error
}

// pathsRoot is the reserved model-space subtree of Step 7's stored paths.
const pathsRoot = "paths"

// mappingSuffix turns a UPSIM name into the name of its Step 6 mapping
// import. Every Step 6 error text carries it, so it never varies: the same
// request always fails with the same bytes.
const mappingSuffix = "-1"

// NewGenerator checks the model against Step 5 and prepares the graph view
// of the named infrastructure object diagram.
func NewGenerator(m *uml.Model, diagramName string) (*Generator, error) {
	return NewGeneratorContext(context.Background(), m, diagramName)
}

// NewGeneratorContext is NewGenerator under a context: when ctx carries an
// obs span, Step 5 is recorded as a child span with the imported topology
// size. Step 5 fails exactly when importing the model into a model space
// would (importers.CheckView), but builds no space.
func NewGeneratorContext(ctx context.Context, m *uml.Model, diagramName string) (*Generator, error) {
	_, sp := obs.StartStage(ctx, "step5.import_uml")
	defer sp.End()
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	d, ok := m.Diagram(diagramName)
	if !ok {
		return nil, fmt.Errorf("core: model %q has no object diagram %q", m.Name(), diagramName)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid model: %w", err)
	}
	view := importers.ViewOf(m)
	if err := importers.CheckView(view); err != nil {
		return nil, err
	}
	g := topology.FromObjectDiagram(d)
	sp.SetInt("nodes", g.NumNodes())
	sp.SetInt("edges", g.NumEdges())
	// Compile the CSR kernel once per model: every Generate call — across
	// mapping pairs, user perspectives and batch items — reuses it, so the
	// string-to-index lowering and the adjacency layout are paid exactly once.
	compiled := pathdisc.Compile(g)
	// Install the ranked-discovery cost view from the diagram's stereotype
	// attributes, resolved once here, never during search. Edge ID i is
	// d.LinkAt(i) (topology.FromObjectDiagram); a diagram without links
	// still resolves edge ID 0, which the bound check sends to the hop
	// fallback.
	compiled.SetEdgeCosts(func(edgeID int) (float64, bool) {
		if edgeID < 0 || edgeID >= d.NumLinks() {
			return 0, false
		}
		if tp, ok := d.LinkAt(edgeID).Property("throughput"); ok && tp.AsReal() > 0 {
			return tp.AsReal(), true
		}
		return 0, false
	})
	return &Generator{
		model:       m,
		diagramName: diagramName,
		diagram:     d,
		diagramFQN:  importers.DiagramFQN(m.Name(), diagramName),
		view:        view,
		graph:       g,
		compiled:    compiled,
	}, nil
}

// Space returns the model space of Steps 5–7: the UML import of the model,
// the mapping import and stored paths of every recorded generation, and
// whatever tooling (rbdgen, VTCL patterns) added since. The first
// successful call builds it, replaying the recorded generations in order;
// later Record calls write into it directly. Generate never touches it.
// Callers must not use it concurrently with Record.
//
// The import covers the profiles, classes, associations, diagrams and
// activities the model had when NewGenerator checked it; elements added
// later are not in the space. An element of those changed in place since
// is imported as it is now, and the build fails with the import's error
// when that change broke the import (an instance with a dotted name, say).
func (g *Generator) Space() (*vpm.ModelSpace, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.space == nil {
		s, err := g.buildSpace()
		if err != nil {
			return nil, fmt.Errorf("core: building the model space: %w", err)
		}
		g.space = s
	}
	return g.space, nil
}

// buildSpace imports the model as of construction (Step 5), then replays
// each recorded generation's mapping import (Step 6) and stored paths
// (Step 7). Callers hold g.mu.
func (g *Generator) buildSpace() (*vpm.ModelSpace, error) {
	s := vpm.NewSpace()
	im, err := importers.NewUMLImporter(s)
	if err != nil {
		return nil, err
	}
	if err := im.ImportView(g.view); err != nil {
		return nil, err
	}
	for _, res := range g.recorded {
		if err := g.importRecorded(s, res); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Graph returns the graph view of the infrastructure diagram.
func (g *Generator) Graph() *topology.Graph { return g.graph }

// Compiled returns the CSR path-discovery kernel compiled from the
// infrastructure graph at construction time. It is immutable and safe for
// concurrent use; callers that enumerate paths outside the pipeline (the
// HTTP /paths endpoint, tooling) should prefer it over the map-based
// pathdisc functions to amortise compilation.
func (g *Generator) Compiled() *pathdisc.Compiled { return g.compiled }

// Model returns the source UML model.
func (g *Generator) Model() *uml.Model { return g.model }

// Diagram returns the infrastructure object diagram the generator was built
// on. Edge ID i of Graph and Compiled is its LinkAt(i).
func (g *Generator) Diagram() *uml.ObjectDiagram { return g.diagram }

// Generate runs Steps 6–8 for one composite service, mapping and UPSIM name.
// The name names the output object diagram and, once recorded, the mapping
// import (<name>-1) and the stored path subtree; it must not name a
// diagram the model lists (the infrastructure's, or a recorded UPSIM's).
// Generate leaves the model and the model space as it found them: Record
// adds a result to both.
func (g *Generator) Generate(svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (*Result, error) {
	return g.GenerateContext(context.Background(), svc, mp, name, opts)
}

// GenerateContext is Generate under a context: when ctx carries an obs
// span, each pipeline stage (Step 6 mapping import, Step 7 path discovery
// with one child span per atomic service, Step 8 merge) is recorded with
// its wall time and outcome attributes; without one, no span is opened.
//
// With a cache attached (WithCache), the request is content-addressed first
// (CacheKey): a hit returns the shared, immutable Result without running
// any pipeline step — the trace then carries a single "cache" span instead
// of the step6/step7/step8 stages — and concurrent identical misses compute
// once (singleflight). The Result carries its key in Key. Errors are never
// cached.
func (g *Generator) GenerateContext(ctx context.Context, svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (*Result, error) {
	if svc == nil {
		return nil, fmt.Errorf("core: nil service")
	}
	if name == "" {
		return nil, fmt.Errorf("core: empty UPSIM name")
	}
	// Step 8's semantics is checked before any step runs, so a request
	// that can never merge fails before discovery, and does so even on a
	// diagram without links.
	if opts.Merge != MergeInduced && opts.Merge != MergeTraversed {
		return nil, fmt.Errorf("core: unknown merge semantics %v", opts.Merge)
	}
	if c := g.Cache(); c != nil {
		key, err := g.CacheKey(svc, mp, name, opts)
		if err != nil {
			return nil, err
		}
		v, outcome, err := c.Do(ctx, key, func() (any, error) {
			res, err := g.generate(ctx, svc, mp, name, opts)
			if err != nil {
				return nil, err
			}
			res.Key = key // before the cache publishes res
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		if outcome != cache.OutcomeMiss {
			_, sp := obs.StartStage(ctx, "cache")
			sp.SetString("outcome", outcome.String())
			sp.SetString("key", key[:12])
			sp.End()
		}
		return v.(*Result), nil
	}
	return g.generate(ctx, svc, mp, name, opts)
}

// generate runs the actual Step 6–8 pipeline. It takes no lock: it reads
// only what NewGenerator built and writes only the Result it returns.
func (g *Generator) generate(ctx context.Context, svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (*Result, error) {
	if _, taken := g.model.Diagram(name); taken {
		return nil, fmt.Errorf("core: model already has an object diagram named %q", name)
	}

	// Pre-flight lint gate: runs before CheckMapping so that a failing run
	// reports every defect at once (a missing pair, a dangling reference and
	// a disconnected pair all appear in one *lint.Error) instead of the
	// pipeline stopping at the first.
	if opts.Lint != LintOff {
		if err := g.lintGate(ctx, svc, mp, name, opts.Lint); err != nil {
			return nil, err
		}
	}
	if err := svc.CheckMapping(mp); err != nil {
		return nil, err
	}

	// Step 6: check the service mapping pairs as their import would,
	// verifying every referenced component against the infrastructure
	// diagram.
	_, span6 := obs.StartStage(ctx, "step6.import_mapping")
	pairs := mp.Pairs() // a copy: the caller may change mp after Generate
	if err := importers.CheckPairs(name+mappingSuffix, pairs, g.diagram, g.diagramFQN); err != nil {
		span6.End()
		return nil, err
	}
	span6.SetInt("pairs", len(pairs))
	span6.End()

	// Step 7: path discovery per atomic service, in execution order. Each
	// pair is resolved, discovered and checked before the next starts, so
	// the first failing pair is the one reported.
	ctx7, span7 := obs.StartStage(ctx, "step7.pathdisc")
	defer span7.End()
	relevant, err := svc.RelevantPairs(mp)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: name, Services: make([]ServicePaths, 0, len(relevant)), pairs: pairs}
	for _, p := range relevant {
		if err := ctx7.Err(); err != nil {
			return nil, err
		}
		sp := ServicePaths{AtomicService: p.AtomicService, Requester: p.Requester, Provider: p.Provider}
		_, svcSpan := obs.StartStage(ctx7, sp.AtomicService)
		sp.Paths, sp.Stats, err = g.discover(sp.Requester, sp.Provider, opts)
		svcSpan.SetInt("paths", sp.Stats.Paths)
		svcSpan.SetInt("edge_visits", sp.Stats.EdgeVisits)
		svcSpan.SetInt("nodes_visited", sp.Stats.NodeVisits)
		svcSpan.SetInt("max_stack", sp.Stats.MaxStack)
		svcSpan.End()
		if err != nil {
			return nil, fmt.Errorf("core: %s: atomic service %q: %w", name, sp.AtomicService, err)
		}
		if len(sp.Paths) == 0 && !opts.AllowDisconnected {
			return nil, fmt.Errorf("core: %s: atomic service %q: no path between requester %q and provider %q",
				name, sp.AtomicService, sp.Requester, sp.Provider)
		}
		res.Services = append(res.Services, sp)
		res.TotalPaths += len(sp.Paths)
		res.EdgeVisits += sp.Stats.EdgeVisits
		res.Pruned += sp.Stats.Pruned
	}
	span7.SetInt("paths", res.TotalPaths)
	span7.SetInt("edge_visits", res.EdgeVisits)
	span7.End()

	// Step 8: merge all paths of all atomic services into one object
	// diagram.
	_, span8 := obs.StartStage(ctx, "step8.merge")
	defer span8.End()
	if err := g.merge(res, opts); err != nil {
		return nil, err
	}
	span8.SetInt("nodes", res.Graph.NumNodes())
	span8.SetInt("links", res.Graph.NumEdges())
	return res, nil
}

// lintGate runs the built-in lint registry over the generator's artifacts.
// In LintFail mode error-severity findings abort the generation with a
// *lint.Error; in LintWarn mode every warning and error is logged through
// obs.Logger and the pipeline continues.
func (g *Generator) lintGate(ctx context.Context, svc *service.Composite, mp *mapping.Mapping, name string, mode LintMode) error {
	_, span := obs.StartStage(ctx, "lint.preflight")
	defer span.End()
	rep, err := lint.Default().Run(&lint.Input{
		Model:   g.model,
		Diagram: g.diagram,
		Graph:   g.graph,
		Service: svc,
		Mapping: mp,
	})
	if err != nil {
		return err
	}
	span.SetInt("errors", rep.Errors)
	span.SetInt("warnings", rep.Warnings)
	if mode == LintFail {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("core: %s: pre-flight %w", name, err)
		}
		return nil
	}
	for _, d := range rep.Diagnostics {
		if d.Severity < lint.SeverityWarning {
			continue
		}
		obs.Logger().Warn("lint finding",
			"upsim", name,
			"rule", d.Rule,
			"severity", d.Severity.String(),
			"element", d.Element,
			"message", d.Message)
	}
	return nil
}

// discover runs Step 7 for one requester/provider pair: ranked discovery
// when Paths.K > 0, and the compiled recursive DFS otherwise.
func (g *Generator) discover(req, prov string, opts Options) ([]pathdisc.Path, pathdisc.Stats, error) {
	if opts.Paths.K > 0 {
		// Ranked discovery: the K cheapest paths under the stereotype cost
		// view replace the full enumeration — Step 7 with a bounded work
		// envelope instead of an exponential sweep.
		return g.compiled.KShortest(req, prov, opts.Paths)
	}
	return g.compiled.AllPaths(req, prov, opts.Paths)
}

// Record adds one generation to the model and the model space, for
// tooling that reads them there: the model lists the UPSIM diagram (so
// Diagram and WriteModel see it), and the model space — now, or when Space
// first builds it — holds the Step 6 mapping import under
// mappings.<name>-1 and the paths Step 7 discovered under paths.<name>
// ("Resulting paths are stored separately in the model space for further
// manipulation", Step 7). A server never records, so its shared
// generators stay read-only.
//
// res must come from this generator. Record rejects a name the model
// already lists; once recorded, a name also fails a later Generate. Record
// writes the model: it must not run concurrently with Generate.
func (g *Generator) Record(res *Result) error {
	if res == nil || res.Source != g.diagram {
		return fmt.Errorf("core: recording a result not generated from this generator's diagram")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.model.AttachDiagram(res.UPSIM); err != nil {
		return fmt.Errorf("core: recording %q: %w", res.Name, err)
	}
	g.recorded = append(g.recorded, res)
	if g.space == nil {
		return nil
	}
	return g.importRecorded(g.space, res)
}

// importRecorded writes one recorded generation into a model space: its
// mapping import (Step 6) and its stored paths (Step 7). Record and
// buildSpace share it, so an eagerly and a lazily built space agree.
// Callers hold g.mu.
func (g *Generator) importRecorded(s *vpm.ModelSpace, res *Result) error {
	mi, err := importers.NewMappingImporter(s)
	if err != nil {
		return err
	}
	if err := mi.ImportPairs(res.Name+mappingSuffix, res.pairs, g.diagramFQN); err != nil {
		return err
	}
	return storePaths(s, res.Name, res.Services)
}

// storePaths materialises paths under paths.<name>.<atomic service>.p<i>,
// each entity valued with the paper-style path string.
func storePaths(s *vpm.ModelSpace, name string, services []ServicePaths) error {
	for _, sp := range services {
		parent, err := s.EnsureEntity(pathsRoot + "." + name + "." + sp.AtomicService)
		if err != nil {
			return err
		}
		for i, p := range sp.Paths {
			pe, err := s.NewEntity(parent, fmt.Sprintf("p%d", i))
			if err != nil {
				return err
			}
			pe.SetValue(p.String())
		}
	}
	return nil
}

// merge builds the UPSIM object diagram and graph from the union of all
// discovered paths. "Multiple occurrences are ignored" — the merge is a set
// union over nodes (and, for MergeTraversed, edges). It marks the kept
// instances and links by their index in the infrastructure diagram, counts
// them, and builds the UPSIM into a diagram sized for exactly those, in
// the infrastructure's instance and link order.
func (g *Generator) merge(res *Result, opts Options) error {
	src := g.diagram
	res.Source = src
	nInst, nLinks := src.NumInstances(), src.NumLinks()
	// keepInst[i] marks src.InstanceAt(i), which is the compiled kernel's
	// node i (both follow the diagram's instance order); keepLink[i] marks
	// src.LinkAt(i), which is topology edge i.
	mask := make([]bool, nInst+nLinks)
	keepInst, keepLink := mask[:nInst], mask[nInst:]
	traversed := opts.Merge == MergeTraversed
	for _, sp := range res.Services {
		for _, p := range sp.Paths {
			for _, n := range p.Nodes {
				if id, ok := g.compiled.NodeID(n); ok {
					keepInst[id] = true
				}
			}
			if traversed {
				for _, e := range p.Edges {
					if e >= 0 && e < nLinks {
						keepLink[e] = true
					}
				}
			}
		}
	}
	keptInst, keptLinks := 0, 0
	for _, k := range keepInst {
		if k {
			keptInst++
		}
	}
	for i := range keepLink {
		if !traversed {
			// MergeInduced: every link whose both ends are kept.
			a, b := src.LinkAt(i).Ends()
			ia, _ := g.compiled.NodeID(a.Name())
			ib, _ := g.compiled.NodeID(b.Name())
			keepLink[i] = keepInst[ia] && keepInst[ib]
		}
		if keepLink[i] {
			keptLinks++
		}
	}

	out := g.model.NewSizedDiagram(res.Name, keptInst, keptLinks)
	for i, k := range keepInst {
		if !k {
			continue
		}
		inst := src.InstanceAt(i)
		if _, err := out.AddInstance(inst.Name(), inst.Classifier()); err != nil {
			return err
		}
	}
	for i, k := range keepLink {
		if !k {
			continue
		}
		l := src.LinkAt(i)
		a, b := l.Ends()
		if _, err := out.ConnectByName(a.Name(), b.Name(), l.Association()); err != nil {
			return err
		}
	}
	res.UPSIM = out
	res.Graph = topology.FromObjectDiagram(out)
	return nil
}
