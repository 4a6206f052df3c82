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
// mapping pairs with exactly the errors the importers would report. The
// model space of Steps 5–7 is the view the paper's VIATRA2 tooling reads;
// a Generator builds it on the first Space call, replaying the imports and
// stored paths of its live generations, and keeps it current from then on.
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

// Algorithm selects the Step 7 path-discovery strategy.
type Algorithm uint8

const (
	// AlgoRecursive is the paper's recursive DFS with path tracking, run on
	// the compiled CSR kernel.
	AlgoRecursive Algorithm = iota
	// AlgoShortest keeps only one minimum-hop path per atomic service. It
	// deliberately violates Definition 2 (all redundant paths) and exists
	// for the redundancy ablation.
	AlgoShortest
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case AlgoRecursive:
		return "recursive-dfs"
	case AlgoShortest:
		return "shortest-path"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

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
// simple paths (AlgoRecursive), induced merge (MergeInduced), unbounded
// enumeration, disconnected pairs are errors, and no lint gate (LintOff).
// Every default below is asserted by TestOptionsZeroValueDefaults.
type Options struct {
	// Algorithm selects the Step 7 path-discovery strategy. The zero value
	// AlgoRecursive is the paper's recursive DFS with path tracking.
	Algorithm Algorithm
	// Merge selects the Step 8 merge semantics. The zero value MergeInduced
	// is the paper's Section VI-H filter (keep every infrastructure link
	// whose both endpoints appear in some path).
	Merge MergeSemantics
	// Paths tunes the enumeration (depth/count bounds, ranked top-k). The
	// zero value enumerates every simple path, parallel links included.
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
	// UPSIM is the generated UML object diagram, living in the source
	// model; its instances share the classifiers of the infrastructure so
	// every dependability property remains reachable (Section V-E).
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
	// pass skipped in Step 7 (always 0 for ranked discovery and
	// AlgoShortest).
	Pruned int
	// Key is the generation's content address (CacheKey) when it was
	// produced through an attached cache, and empty otherwise.
	Key string
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
// model later — Generate's own output diagrams included — stay out of it,
// as they stayed out of an import at construction.
//
// A Generator is safe for concurrent use: an internal mutex serialises the
// pipeline's model-space and model mutations, so concurrent Generate calls
// with distinct inputs queue, while — with a cache attached (WithCache) —
// concurrent identical calls collapse into one computation via singleflight
// and the rest share the cached Result.
type Generator struct {
	model       *uml.Model
	diagramName string
	diagram     *uml.ObjectDiagram // the infrastructure diagram
	view        importers.View     // the model's elements at construction: what Step 5 imports
	graph       *topology.Graph
	compiled    *pathdisc.Compiled // CSR kernel, built once per model, immutable

	mu          sync.Mutex      // guards the fields below and the pipeline's mutations
	space       *vpm.ModelSpace // built by the first Space call
	mappingSeq  int
	cache       *cache.Cache
	modelDigest string // canonical model hash, taken by the first CacheKey
	digestErr   error

	// derived records every artifact a Generate call grafted onto the
	// shared model and model space (output diagram, mapping subtree, paths
	// subtree), so ResetDerived can unhook them when the generator returns
	// to a GeneratorPool, and so the first Space call can replay them.
	derived []derivedGen
	// shared is the deepest shared model-space subtree any generation
	// created; ResetDerived empties these subtrees but never removes them.
	shared  sharedSubtree
	poolKey string // set by GeneratorPool.Acquire; empty for unpooled use
}

// derivedGen records one generation: the UPSIM output diagram (which also
// names the paths.<name> subtree), the sequenced mapping import, and what a
// lazily built space replays — the imported pairs, nil when Step 6 failed,
// and the stored path sets, nil until Step 8 stored them.
type derivedGen struct {
	diagram  string
	mapping  string
	pairs    []mapping.Pair
	services []ServicePaths
}

// sharedSubtree orders the shared model-space subtrees in the order the
// pipeline creates them; each implies the ones before it.
type sharedSubtree uint8

const (
	sharedNone     sharedSubtree = iota
	sharedPairType               // metamodel.mapping.ServiceMappingPair: Step 6 began
	sharedMappings               // mappings: a mapping with a valid name was imported, its pairs or not
	sharedPaths                  // paths: Step 8 stored a path set
)

// pathsRoot is the reserved model-space subtree of Step 7's stored paths.
const pathsRoot = "paths"

// NewGenerator checks the model against Step 5 and prepares the graph view
// of the named infrastructure object diagram.
func NewGenerator(m *uml.Model, diagramName string) (*Generator, error) {
	return NewGeneratorContext(context.Background(), m, diagramName)
}

// NewGeneratorContext is NewGenerator under a context: when ctx carries an
// obs span, Step 5 is recorded as a child span with the imported topology
// size. Step 5 fails exactly when importing the model into a model space
// would (importers.Check), but builds no space.
func NewGeneratorContext(ctx context.Context, m *uml.Model, diagramName string) (*Generator, error) {
	_, sp := obs.StartSpan(ctx, "step5.import_uml")
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
	sp.SetAttr("nodes", g.NumNodes())
	sp.SetAttr("edges", g.NumEdges())
	// Compile the CSR kernel once per model: every Generate call — across
	// mapping pairs, user perspectives and batch items — reuses it, so the
	// string-to-index lowering and the adjacency layout are paid exactly once.
	compiled := pathdisc.Compile(g)
	// Install the ranked-discovery cost view from the diagram's stereotype
	// attributes, resolved once here, never during search. Edge ID i is
	// links[i] (topology.FromObjectDiagram); a diagram without links still
	// resolves edge ID 0, which the bound check sends to the hop fallback.
	links := d.Links()
	compiled.SetEdgeCosts(func(edgeID int) (float64, bool) {
		if edgeID < 0 || edgeID >= len(links) {
			return 0, false
		}
		if tp, ok := links[edgeID].Property("throughput"); ok && tp.AsReal() > 0 {
			return tp.AsReal(), true
		}
		return 0, false
	})
	return &Generator{
		model:       m,
		diagramName: diagramName,
		diagram:     d,
		view:        view,
		graph:       g,
		compiled:    compiled,
	}, nil
}

// Space returns the model space of Steps 5–7: the UML import of the model,
// the mapping import and stored paths of every live generation, and
// whatever tooling (rbdgen, VTCL patterns) added since. The first
// successful call builds it, replaying the generations in order; later
// Generate calls write into it directly. It is read-mostly; callers must
// not use it concurrently with Generate or ResetDerived.
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

// buildSpace imports the model as of construction (Step 5), recreates the
// shared subtrees, then replays each live generation's mapping import
// (Step 6) and stored paths (Step 7). Callers hold g.mu.
func (g *Generator) buildSpace() (*vpm.ModelSpace, error) {
	s := vpm.NewSpace()
	im, err := importers.NewUMLImporter(s)
	if err != nil {
		return nil, err
	}
	if err := im.ImportView(g.view); err != nil {
		return nil, err
	}
	if g.shared < sharedPairType {
		return s, nil
	}
	mi, err := importers.NewMappingImporter(s)
	if err != nil {
		return nil, err
	}
	if g.shared >= sharedMappings {
		if _, err := s.EnsureEntity(importers.NSMappings); err != nil {
			return nil, err
		}
	}
	if g.shared >= sharedPaths {
		if _, err := s.EnsureEntity(pathsRoot); err != nil {
			return nil, err
		}
	}
	diagramFQN := importers.DiagramFQN(g.model.Name(), g.diagramName)
	for _, d := range g.derived {
		if d.pairs != nil {
			if err := mi.ImportPairs(d.mapping, d.pairs, diagramFQN); err != nil {
				return nil, err
			}
		}
		if err := storePaths(s, d.diagram, d.services); err != nil {
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

// Generate runs Steps 6–8 for one composite service, mapping and UPSIM name.
// The name must be unique per generator invocation (it names the mapping
// import, the stored path subtree and the output object diagram).
func (g *Generator) Generate(svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (*Result, error) {
	return g.GenerateContext(context.Background(), svc, mp, name, opts)
}

// GenerateContext is Generate under a context: when ctx carries an obs
// span, each pipeline stage (Step 6 mapping import, Step 7 path discovery
// with one child span per atomic service, Step 8 merge) is recorded with
// its wall time and outcome attributes.
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
			_, sp := obs.StartSpan(ctx, "cache")
			sp.SetAttr("outcome", outcome.String())
			sp.SetAttr("key", key[:12])
			sp.End()
		}
		return v.(*Result), nil
	}
	return g.generate(ctx, svc, mp, name, opts)
}

// generate runs the actual Step 6–8 pipeline under the generator mutex.
func (g *Generator) generate(ctx context.Context, svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (*Result, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
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

	// Step 6: import the service mapping pairs, verifying every referenced
	// component against the infrastructure diagram.
	_, span6 := obs.StartSpan(ctx, "step6.import_mapping")
	g.mappingSeq++
	mappingName := fmt.Sprintf("%s-%d", name, g.mappingSeq)
	// Record the generation before any state is created: a failed step may
	// leave a partial graft (an imported mapping whose discovery then
	// fails), and ResetDerived must unhook those too. Cleanup of names that
	// never materialised is a no-op.
	g.derived = append(g.derived, derivedGen{diagram: name, mapping: mappingName})
	rec := &g.derived[len(g.derived)-1]
	pairs := mp.Pairs() // a copy: the caller may change mp after Generate
	if err := g.importPairs(mappingName, pairs); err != nil {
		span6.End()
		return nil, err
	}
	rec.pairs = pairs
	span6.SetAttr("pairs", len(pairs))
	span6.End()

	// Step 7: path discovery per atomic service, in execution order. Each
	// pair is resolved, discovered and checked before the next starts, so
	// the first failing pair is the one reported.
	ctx7, span7 := obs.StartSpan(ctx, "step7.pathdisc")
	defer span7.End()
	span7.SetAttr("algorithm", opts.Algorithm.String())
	pairs, err := svc.RelevantPairs(mp)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: name, Services: make([]ServicePaths, 0, len(pairs))}
	for _, p := range pairs {
		if err := ctx7.Err(); err != nil {
			return nil, err
		}
		sp := ServicePaths{AtomicService: p.AtomicService, Requester: p.Requester, Provider: p.Provider}
		_, svcSpan := obs.StartSpan(ctx7, sp.AtomicService)
		sp.Paths, sp.Stats, err = g.discover(sp.Requester, sp.Provider, opts)
		svcSpan.SetAttr("paths", sp.Stats.Paths)
		svcSpan.SetAttr("edge_visits", sp.Stats.EdgeVisits)
		svcSpan.SetAttr("nodes_visited", sp.Stats.NodeVisits)
		svcSpan.SetAttr("max_stack", sp.Stats.MaxStack)
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
	span7.SetAttr("paths", res.TotalPaths)
	span7.SetAttr("edge_visits", res.EdgeVisits)
	span7.End()

	// Step 8: merge all paths of all atomic services into one object
	// diagram. Storing the discovered paths in the reserved model-space
	// subtree ("Resulting paths are stored separately in the model space for
	// further manipulation", Step 7) is part of the same stage.
	_, span8 := obs.StartSpan(ctx, "step8.merge")
	defer span8.End()
	if len(res.Services) > 0 {
		g.shared = max(g.shared, sharedPaths)
	}
	rec.services = res.Services
	if g.space != nil {
		if err := storePaths(g.space, name, res.Services); err != nil {
			return nil, err
		}
	}
	if err := g.merge(res, opts); err != nil {
		return nil, err
	}
	span8.SetAttr("nodes", res.Graph.NumNodes())
	span8.SetAttr("links", res.Graph.NumEdges())
	return res, nil
}

// lintGate runs the built-in lint registry over the generator's artifacts.
// In LintFail mode error-severity findings abort the generation with a
// *lint.Error; in LintWarn mode every warning and error is logged through
// obs.Logger and the pipeline continues.
func (g *Generator) lintGate(ctx context.Context, svc *service.Composite, mp *mapping.Mapping, name string, mode LintMode) error {
	_, span := obs.StartSpan(ctx, "lint.preflight")
	defer span.End()
	diagram, _ := g.model.Diagram(g.diagramName)
	rep, err := lint.Default().Run(&lint.Input{
		Model:   g.model,
		Diagram: diagram,
		Graph:   g.graph,
		Service: svc,
		Mapping: mp,
	})
	if err != nil {
		return err
	}
	span.SetAttr("errors", rep.Errors)
	span.SetAttr("warnings", rep.Warnings)
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
// when Paths.K > 0, the shortest-path ablation for AlgoShortest, and the
// compiled recursive DFS otherwise.
func (g *Generator) discover(req, prov string, opts Options) ([]pathdisc.Path, pathdisc.Stats, error) {
	switch {
	case opts.Paths.K > 0:
		// Ranked discovery: the K cheapest paths under the stereotype cost
		// view replace the full enumeration — Step 7 with a bounded work
		// envelope instead of an exponential sweep.
		return g.compiled.KShortest(req, prov, opts.Paths)
	case opts.Algorithm == AlgoShortest:
		p, err := pathdisc.ShortestPath(g.graph, req, prov)
		if err != nil {
			// Unreachable providers surface as zero paths, consistent with
			// the DFS.
			return nil, pathdisc.Stats{}, nil
		}
		return []pathdisc.Path{p}, pathdisc.Stats{Paths: 1, EdgeVisits: p.Len(), NodeVisits: len(p.Nodes)}, nil
	default:
		return g.compiled.AllPaths(req, prov, opts.Paths)
	}
}

// importPairs runs Step 6 for one generation: into the model space when it
// exists, else as importers.CheckPairs, which fails exactly where the
// import would. Either way it records the shared subtrees the import
// creates, for a later buildSpace. Callers hold g.mu.
func (g *Generator) importPairs(mappingName string, pairs []mapping.Pair) error {
	g.shared = max(g.shared, sharedPairType)
	if importers.CheckMappingName(mappingName) == nil {
		g.shared = max(g.shared, sharedMappings)
	}
	diagramFQN := importers.DiagramFQN(g.model.Name(), g.diagramName)
	if g.space == nil {
		return importers.CheckPairs(mappingName, pairs, g.diagram, diagramFQN)
	}
	mi, err := importers.NewMappingImporter(g.space)
	if err != nil {
		return err
	}
	return mi.ImportPairs(mappingName, pairs, diagramFQN)
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
// union over nodes (and, for MergeTraversed, edges).
func (g *Generator) merge(res *Result, opts Options) error {
	keep := make(map[string]bool)
	edges := make(map[int]bool)
	for _, sp := range res.Services {
		for n := range pathdisc.NodeSet(sp.Paths) {
			keep[n] = true
		}
		for e := range pathdisc.EdgeSet(sp.Paths) {
			edges[e] = true
		}
	}

	src, _ := g.model.Diagram(g.diagramName)
	res.Source = src
	out := g.model.NewObjectDiagram(res.Name)
	for _, inst := range src.Instances() {
		if !keep[inst.Name()] {
			continue
		}
		if _, err := out.AddInstance(inst.Name(), inst.Classifier()); err != nil {
			return err
		}
	}
	// The topology graph was built from src in link order, so edge ID i is
	// src.Links()[i].
	links := src.Links()
	for i, l := range links {
		a, b := l.Ends()
		include := false
		switch opts.Merge {
		case MergeInduced:
			include = keep[a.Name()] && keep[b.Name()]
		case MergeTraversed:
			include = edges[i]
		default:
			return fmt.Errorf("core: unknown merge semantics %v", opts.Merge)
		}
		if !include {
			continue
		}
		if _, err := out.ConnectByName(a.Name(), b.Name(), l.Association()); err != nil {
			return err
		}
	}
	res.UPSIM = out
	res.Graph = topology.FromObjectDiagram(out)
	return nil
}

// ResetDerived unhooks every artifact previous Generate calls grafted onto
// the shared model and model space: output diagrams detach from the model
// (staying valid inside cached Results), the generation records go, and —
// when the space was built — the mapping and paths subtrees are deleted.
// The infrastructure (Step 5) is untouched, so the generator is ready for a
// fresh sequence of generations against the same model — this is what
// makes a Generator reusable through a GeneratorPool without name
// collisions or unbounded growth.
func (g *Generator) ResetDerived() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, d := range g.derived {
		g.model.RemoveDiagram(d.diagram)
		if g.space == nil {
			continue
		}
		if e, ok := g.space.Lookup(importers.NSMappings + "." + d.mapping); ok {
			// The subtree exists and is not the root; deletion cannot fail.
			_ = g.space.DeleteEntity(e)
		}
		if e, ok := g.space.Lookup(pathsRoot + "." + d.diagram); ok {
			_ = g.space.DeleteEntity(e)
		}
	}
	clear(g.derived)
	g.derived = g.derived[:0]
}
