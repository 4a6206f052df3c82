// Package upsim generates and analyses user-perceived service
// infrastructure models (UPSIMs), reproducing Dittrich, Kaitovic, Murillo
// and Rezende, "A Model for Evaluation of User-Perceived Service
// Properties" (IPDPS Workshops 2013).
//
// A UPSIM is the part of an ICT infrastructure that one specific pair of
// service requester and provider actually uses: given a UML-style model of
// the network (classes with static MTBF/MTTR attributes via profiles, an
// object diagram for the deployed topology), a composite service described
// as an activity diagram over atomic services, and an XML mapping binding
// every atomic service to a (requester, provider) pair, the Generator
// discovers all simple paths per atomic service and merges them into a new
// object diagram whose elements keep all class properties — ready for
// user-perceived dependability analysis (availability via reliability block
// diagrams, fault trees, exact structure-function evaluation and Monte
// Carlo simulation).
//
// The package is a facade over the implementation packages under internal/;
// it re-exports the model types and wires the common workflows:
//
//	m, _ := upsim.USIModel()                  // or build/load your own
//	svc, _ := upsim.USIPrintingService(m)
//	gen, _ := upsim.NewGenerator(m, upsim.USIDiagramName)
//	res, _ := gen.Generate(svc, upsim.USITableIMapping(), "t1-to-p2", upsim.Options{})
//	rep, _ := upsim.Analyze(res, upsim.ModelExact, 100000, 1)
//	fmt.Println(res.NodeNames(), rep.Exact)
//
// Generate is a function of its request: it leaves the model and the
// generator's model space as it found them, names its Step 6 mapping
// <name>-1 every time, and a failed generation leaves nothing behind.
// Tooling that wants the UPSIM in the model (WriteModel) or in the model
// space (GenerateRBD, VTCL patterns) records it first with
// gen.Record(res).
package upsim

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"sort"

	"upsim/internal/cache"
	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/explain"
	"upsim/internal/lint"
	"upsim/internal/mapping"
	"upsim/internal/modelgen"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/rbdgen"
	"upsim/internal/service"
	"upsim/internal/topology"
	"upsim/internal/uml"
	"upsim/internal/vpm"
	"upsim/internal/vtcl"
	"upsim/internal/whatif"
	"upsim/internal/workspace"
)

// UML model building blocks (see the uml implementation package for full
// documentation of each type).
type (
	// Model is the root UML model container: profiles, classes,
	// associations, object diagrams and activities.
	Model = uml.Model
	// Profile groups stereotypes, e.g. the availability profile.
	Profile = uml.Profile
	// Stereotype extends the Class or Association metaclass with typed
	// attributes.
	Stereotype = uml.Stereotype
	// Class describes one ICT component type with static attributes.
	Class = uml.Class
	// Association is a possible connection between two component classes.
	Association = uml.Association
	// ObjectDiagram is a deployed topology (and the UPSIM output form).
	ObjectDiagram = uml.ObjectDiagram
	// InstanceSpecification is one deployed component ("t1:Comp").
	InstanceSpecification = uml.InstanceSpecification
	// Link is one deployed connection between two instances.
	Link = uml.Link
	// Activity is a composite-service description as a flow of actions.
	Activity = uml.Activity
	// Value is a typed UML attribute value.
	Value = uml.Value
)

// Service and mapping types.
type (
	// Composite is a validated composite service over an activity diagram.
	Composite = service.Composite
	// Mapping binds atomic services to (requester, provider) pairs.
	Mapping = mapping.Mapping
	// Pair is one service mapping pair.
	Pair = mapping.Pair
)

// Generation pipeline types.
type (
	// Generator runs Steps 5–8 of the methodology.
	Generator = core.Generator
	// Options tunes path discovery and merge semantics.
	Options = core.Options
	// Result is one generated UPSIM with its per-service path sets.
	Result = core.Result
	// ServicePaths is the Step 7 output for one atomic service.
	ServicePaths = core.ServicePaths
	// Path is one simple requester→provider path.
	Path = pathdisc.Path
	// PathOptions tunes path enumeration (depth/count bounds).
	PathOptions = pathdisc.Options
	// PathStats reports the search effort of one enumeration.
	PathStats = pathdisc.Stats
	// Graph is the topology view used by path discovery.
	Graph = topology.Graph
	// CostMetric selects the edge-cost model for ranked path discovery
	// (CompiledGraph.KShortest): hop count, or stereotype throughput.
	CostMetric = pathdisc.CostMetric
	// EdgeCostFunc resolves a topology edge ID to its throughput in Mbps for
	// CompiledGraph.SetEdgeCosts; ok=false selects the hop-cost fallback.
	EdgeCostFunc = pathdisc.EdgeCostFunc
	// PathLimitError is the structured budget error returned when a
	// discovery exceeds its enumeration hard limit (kind "paths") or the
	// ranked work envelope (kind "kbest").
	PathLimitError = pathdisc.LimitError
)

// Cost metrics for ranked path discovery (PathOptions.CostMetric).
const (
	// CostHops ranks paths by hop count (the zero value).
	CostHops = pathdisc.CostHops
	// CostThroughput ranks by summed 1/throughput of the traversed links,
	// using the cost view installed by CompiledGraph.SetEdgeCosts (a
	// Generator installs it from the model's Communication stereotypes).
	CostThroughput = pathdisc.CostThroughput
)

// ParseCostMetric maps the wire names "hops" and "throughput" (or "") to a
// CostMetric.
func ParseCostMetric(s string) (CostMetric, error) { return pathdisc.ParseCostMetric(s) }

// Caching types (see internal/cache).
type (
	// Cache is the content-addressed, LRU-bounded generation-result cache
	// with singleflight deduplication. Attach one to a Generator with
	// Generator.WithCache; all methods are safe for concurrent use.
	Cache = cache.Cache
	// CacheStats is a point-in-time snapshot of one cache's counters.
	CacheStats = cache.Stats
	// CacheOutcome classifies how Cache.Do obtained a value (miss, hit or
	// singleflight-shared).
	CacheOutcome = cache.Outcome
)

// DefaultCacheSize is the capacity selected by NewCache(0).
const DefaultCacheSize = cache.DefaultMaxEntries

// NewCache returns an empty generation cache bounded to maxEntries results;
// maxEntries <= 0 selects DefaultCacheSize. A cache can back any number of
// Generators: results are addressed by request content, not by instance.
func NewCache(maxEntries int) *Cache { return cache.New(maxEntries) }

// AllPaths enumerates all simple paths between two components of a topology
// graph using the paper's DFS with path tracking. It compiles g on every
// call (Compile(g).AllPaths); keep a CompiledGraph to search one topology
// repeatedly. PathStats reports the compiled search's effort: expansions
// that cannot reach the provider within MaxDepth are counted in Pruned, not
// in EdgeVisits or NodeVisits.
func AllPaths(g *Graph, from, to string, opts PathOptions) ([]Path, PathStats, error) {
	return pathdisc.Compile(g).AllPaths(from, to, opts)
}

// CompiledGraph is a topology lowered into a CSR (compressed sparse row)
// integer-indexed form by Compile. Its AllPaths enumerates the simple paths
// between two components in the graph's edge insertion order, without
// per-call map allocations, and prunes expansions that cannot reach the
// provider; CountPaths counts them without storing any, and KShortest ranks
// the k cheapest paths instead. A CompiledGraph is immutable and safe for
// concurrent use; Generators compile their infrastructure graph
// automatically (Generator.Compiled).
type CompiledGraph = pathdisc.Compiled

// Compile lowers a topology graph into its CSR form once, so that repeated
// path enumerations against the same topology amortise the string-to-index
// mapping and adjacency layout. See ExampleCompile.
func Compile(g *Graph) *CompiledGraph { return pathdisc.Compile(g) }

// CountPaths counts all simple paths without storing them — the memory-safe
// choice for the dense-graph scalability studies. It compiles g on every
// call (Compile(g).CountPaths), and its PathStats count pruned expansions
// in Pruned, not in EdgeVisits or NodeVisits, as AllPaths' do.
func CountPaths(g *Graph, from, to string, opts PathOptions) (int, PathStats, error) {
	return pathdisc.Compile(g).CountPaths(from, to, opts)
}

// UPSIMDiff describes how the user-perceived infrastructure changes between
// two generated UPSIMs (added/removed/kept components and links).
type UPSIMDiff = core.Diff

// CompareResults diffs two generation results — the operational view of the
// paper's dynamicity scenarios (which components enter and leave a user's
// perceived infrastructure when they move or a service migrates).
func CompareResults(from, to *Result) (*UPSIMDiff, error) { return core.Compare(from, to) }

// Pattern is a declarative graph pattern over the model space.
type Pattern = vpm.Pattern

// ParsePatterns parses a VTCL-style pattern file (see internal/vtcl) into
// executable model-space patterns.
func ParsePatterns(src string) ([]*Pattern, error) { return vtcl.Parse(src) }

// PatternBinding maps pattern variables to matched model-space entities.
type PatternBinding = vpm.Binding

// GenerateRBD materialises the reliability-block-diagram model of a
// recorded UPSIM inside the generator's model space (the companion
// transformation "[20]" of the paper) and returns the RBD root entity
// together with its evaluatable block form. The transformation reads the
// paths stored under paths.<upsimName>, so record the generation with
// gen.Record(res) first. avail maps device names to availabilities (see
// StructureOf for the full component model including connectors).
func GenerateRBD(gen *Generator, upsimName string, avail map[string]float64) (*RBDEntity, Block, error) {
	space, err := gen.Space()
	if err != nil {
		return nil, nil, err
	}
	root, err := rbdgen.Transform(space, upsimName, avail)
	if err != nil {
		return nil, nil, err
	}
	block, err := rbdgen.ToBlock(root)
	if err != nil {
		return nil, nil, err
	}
	return root, block, nil
}

// RBDEntity is a node of the generated RBD model tree.
type RBDEntity = vpm.Entity

// RenderRBD prints an RBD model tree as an indented diagram.
func RenderRBD(root *RBDEntity) string { return rbdgen.Render(root) }

// ThroughputReport is the performability analysis of a UPSIM (Section VII's
// "performability"): widest-path bottleneck throughput per atomic service
// and end to end.
type ThroughputReport = depend.ThroughputReport

// AnalyzeThroughput computes the performability report from the
// Communication profile's throughput attributes on the traversed links.
func AnalyzeThroughput(res *Result) (*ThroughputReport, error) { return depend.Throughput(res) }

// ResponsivenessReport relates timely delivery under a hop budget to plain
// availability (Section VII's "responsiveness").
type ResponsivenessReport = depend.ResponsivenessReport

// AnalyzeResponsiveness computes the probability of timely service delivery
// for a hop budget: the availability over budget-respecting paths only.
func AnalyzeResponsiveness(res *Result, model depend.AvailabilityModel, maxHops int) (*ResponsivenessReport, error) {
	return depend.Responsiveness(res, model, maxHops)
}

// SensitivityReport ranks component classes by how much a class-wide MTBF
// or MTTR change moves the user-perceived availability (the paper's
// "changes ... in the class description ... reflect to all objects" lever).
type SensitivityReport = depend.SensitivityReport

// AnalyzeSensitivity computes the class-level availability sensitivities of
// a generated UPSIM.
func AnalyzeSensitivity(res *Result) (*SensitivityReport, error) { return depend.Sensitivity(res) }

// Workspace is an on-disk project directory: model.xml plus per-perspective
// mapping files and VTCL pattern files (the Eclipse-workspace analogue).
type Workspace = workspace.Workspace

// InitWorkspace creates the project layout in dir and writes the model.
func InitWorkspace(dir string, m *Model) (*Workspace, error) { return workspace.Init(dir, m) }

// LoadWorkspace opens and validates a project directory.
func LoadWorkspace(dir string) (*Workspace, error) { return workspace.Load(dir) }

// BuildModelFromTopology synthesises a complete, validated UML model from a
// topology graph (one class per node kind with the availability profile
// applied) — the bridge for running generated topologies such as fat-trees
// through the full pipeline.
func BuildModelFromTopology(name string, g *Graph, params modelgen.Params) (*Model, error) {
	return modelgen.Build(name, g, params)
}

// TopologyParams re-exports the modelgen parameters.
type TopologyParams = modelgen.Params

// TopologyClassParams carries per-class MTBF/MTTR for BuildModelFromTopology.
type TopologyClassParams = modelgen.ClassParams

// Dependability analysis types.
type (
	// ServiceStructure is the availability structure function of a service.
	ServiceStructure = depend.ServiceStructure
	// CompiledStructure is the interned bitset form of a ServiceStructure:
	// same analyses, bit-identical results, compiled once.
	CompiledStructure = depend.CompiledStructure
	// Report is the end-to-end availability analysis of one UPSIM.
	Report = depend.Report
	// Block is an RBD node (Basic, Series, Parallel).
	Block = depend.Block
	// FTNode is a fault-tree node (BasicEvent, AndGate, OrGate).
	FTNode = depend.FTNode
)

// Merge-semantics selectors for Options.
const (
	MergeInduced   = core.MergeInduced
	MergeTraversed = core.MergeTraversed
)

// Availability-model selectors for Analyze.
const (
	// ModelExact derives component availability as MTBF/(MTBF+MTTR).
	ModelExact = depend.ModelExact
	// ModelFormula1 uses the paper's Formula 1, 1 − MTTR/MTBF.
	ModelFormula1 = depend.ModelFormula1
)

// NewModel creates an empty UML model.
func NewModel(name string) *Model { return uml.NewModel(name) }

// NewProfile creates an empty UML profile.
func NewProfile(name string) *Profile { return uml.NewProfile(name) }

// ReadModel decodes a model from the XML dialect written by WriteModel.
func ReadModel(r io.Reader) (*Model, error) { return uml.Decode(r) }

// WriteModel encodes a model as XML.
func WriteModel(w io.Writer, m *Model) error { return uml.Encode(w, m) }

// CloneModel deep-copies a model through its canonical serialisation, so
// what-if edits (failure injection, topology changes) can run against a copy
// while the original stays pristine.
func CloneModel(m *Model) (*Model, error) {
	var buf bytes.Buffer
	if err := uml.Encode(&buf, m); err != nil {
		return nil, err
	}
	return uml.Decode(&buf)
}

// NewMapping creates an empty service mapping.
func NewMapping() *Mapping { return mapping.New() }

// ReadMapping decodes a service mapping from the paper's Figure 3 XML
// dialect. It reads r to its end. What WriteMapping writes (with any
// whitespace between tags) is scanned without encoding/xml; any other XML
// is parsed by encoding/xml, with the same pairs and the same errors.
func ReadMapping(r io.Reader) (*Mapping, error) { return mapping.Parse(r) }

// WriteMapping encodes a service mapping in the Figure 3 dialect: indented
// XML, byte-identical to encoding/xml's Encoder output with a two-space
// indent, which is also the text the generation cache key hashes.
func WriteMapping(w io.Writer, m *Mapping) error { return m.Encode(w) }

// NewSequentialService builds a strictly sequential composite service.
func NewSequentialService(m *Model, name string, atomics ...string) (*Composite, error) {
	return service.NewSequential(m, name, atomics...)
}

// NewStagedService builds a composite service from execution stages; the
// atomic services of one stage run in parallel between fork and join.
func NewStagedService(m *Model, name string, stages [][]string) (*Composite, error) {
	return service.NewStaged(m, name, stages)
}

// ServiceFromActivity wraps an existing activity diagram as a composite
// service.
func ServiceFromActivity(act *Activity) (*Composite, error) {
	return service.FromActivity(act)
}

// NewGenerator checks the model against Step 5 and prepares generation
// against the named infrastructure object diagram. The generator imports
// the model into its model space when Generator.Space is first called.
func NewGenerator(m *Model, diagramName string) (*Generator, error) {
	return core.NewGenerator(m, diagramName)
}

// NewGeneratorContext is NewGenerator with trace propagation: when ctx
// carries a span (see StartSpan) the Step 5 check records a child span.
func NewGeneratorContext(ctx context.Context, m *Model, diagramName string) (*Generator, error) {
	return core.NewGeneratorContext(ctx, m, diagramName)
}

// Analyze runs the Section VII dependability analysis on a generated UPSIM:
// per-component availability from MTBF/MTTR, exact structure-function
// evaluation, RBD and fault-tree approximations, and a Monte-Carlo check.
func Analyze(res *Result, model depend.AvailabilityModel, mcSamples int, seed int64) (*Report, error) {
	return depend.Analyze(res, model, mcSamples, seed)
}

// AnalyzeContext is Analyze with trace propagation: when ctx carries a span
// (see StartSpan), each analysis stage (structure extraction, kernel
// compilation, exact, RBD, fault tree, Monte Carlo) records a child span
// under an "avail.analyze" span; without one it records nothing.
// Evaluation runs on the compiled bitset kernel.
func AnalyzeContext(ctx context.Context, res *Result, model depend.AvailabilityModel, mcSamples int, seed int64) (*Report, error) {
	return depend.AnalyzeContext(ctx, res, model, mcSamples, seed)
}

// StructureOf extracts the service structure function and component
// availability table from a generated UPSIM for custom analysis.
func StructureOf(res *Result, model depend.AvailabilityModel) (*ServiceStructure, map[string]float64, error) {
	st, _, avail, err := depend.FromResult(res, model)
	return st, avail, err
}

// CompiledStructureOf is StructureOf returning the compiled bitset kernel
// alongside the structure it was compiled from.
func CompiledStructureOf(res *Result, model depend.AvailabilityModel) (*ServiceStructure, *CompiledStructure, map[string]float64, error) {
	return depend.FromResult(res, model)
}

// CompileStructure lowers a service structure into its interned bitset form.
func CompileStructure(s *ServiceStructure) *CompiledStructure {
	return depend.Compile(s)
}

// Availability returns MTBF/(MTBF+MTTR).
func Availability(mtbf, mttr float64) (float64, error) { return depend.Availability(mtbf, mttr) }

// AvailabilityFormula1 returns the paper's approximation 1 − MTTR/MTBF.
func AvailabilityFormula1(mtbf, mttr float64) (float64, error) {
	return depend.AvailabilityFormula1(mtbf, mttr)
}

// ToDOT renders a topology graph (infrastructure or UPSIM) as Graphviz DOT.
func ToDOT(g *Graph, title string) string { return topology.ToDOT(g, title) }

// --- Case study (Section VI): the USI service network ---

// USIDiagramName is the name of the infrastructure object diagram in the
// case-study model.
const USIDiagramName = casestudy.DiagramName

// USIModel builds the University of Lugano case-study model: availability
// and network profiles (Figures 6–7), component classes (Figure 8) and the
// campus topology (Figures 5/9).
func USIModel() (*Model, error) { return casestudy.BuildModel() }

// USIPrintingService models the Figure 10 printing service in the given
// model.
func USIPrintingService(m *Model) (*Composite, error) { return casestudy.PrintingService(m) }

// USIBackupService models the auxiliary backup composite service.
func USIBackupService(m *Model) (*Composite, error) { return casestudy.BackupService(m) }

// USITableIMapping returns the Table I mapping (client t1, printer p2,
// server printS).
func USITableIMapping() *Mapping { return casestudy.TableIMapping() }

// USIT15P3Mapping returns the second perspective of Section VI-H (client
// t15, printer p3).
func USIT15P3Mapping() *Mapping { return casestudy.T15P3Mapping() }

// USIBackupMapping returns the mapping for the backup service from client
// t7.
func USIBackupMapping() *Mapping { return casestudy.BackupMapping() }

// Bounds holds the Esary–Proschan availability bounds returned by
// ServiceStructure.EsaryProschan.
type Bounds = depend.Bounds

// --- Linting (internal/lint) ---

// Lint types: the static-analysis engine over the four model artifacts.
type (
	// LintRule is one static-analysis check (ID, severity, doc, Check).
	LintRule = lint.Rule
	// LintRegistry is an ordered rule set; extend Default with Register.
	LintRegistry = lint.Registry
	// LintInput bundles the artifacts one lint run analyses.
	LintInput = lint.Input
	// LintDiagnostic is one finding (rule, severity, element, message, hint).
	LintDiagnostic = lint.Diagnostic
	// LintReport aggregates the findings of one run, errors first.
	LintReport = lint.Report
	// LintSeverity grades a diagnostic (info, warning, error).
	LintSeverity = lint.Severity
)

// Lint severity levels.
const (
	LintInfo    = lint.SeverityInfo
	LintWarning = lint.SeverityWarning
	LintError   = lint.SeverityError
)

// Lint-gate modes for Options.Lint (pre-flight lint inside Generate).
const (
	LintOff  = core.LintOff
	LintWarn = core.LintWarn
	LintFail = core.LintFail
)

// Lint runs every built-in rule over a model, its named infrastructure
// diagram (may be empty for model-only runs), a composite service and a
// mapping (both may be nil) and returns the aggregated report. It never
// fails on findings — inspect Report.HasErrors or use Report.Err.
func Lint(m *Model, diagramName string, svc *Composite, mp *Mapping) (*LintReport, error) {
	in, err := lint.NewInput(m, diagramName, svc, mp)
	if err != nil {
		return nil, err
	}
	return lint.Default().Run(in)
}

// LintRules returns the built-in rule set in registration order.
func LintRules() []LintRule { return lint.Default().Rules() }

// NewLintRegistry returns a registry preloaded with the built-in rules;
// callers may Register additional project-specific rules and Run it.
func NewLintRegistry() *LintRegistry { return lint.Default() }

// AsLintError extracts the lint report carried by an error returned from a
// LintFail-gated generation.
func AsLintError(err error) (*lint.Error, bool) { return lint.AsError(err) }

// DecodeLintReport reads a report previously written by LintReport.EncodeJSON.
func DecodeLintReport(r io.Reader) (*LintReport, error) { return lint.DecodeReport(r) }

// --- Observability (internal/obs) ---

// Span is one node of a trace tree recorded by StartSpan.
type Span = obs.Span

// SpanAttr is one key/value annotation on a Span.
type SpanAttr = obs.Attr

// StartSpan opens a trace span as a child of the span carried by ctx (or as
// a root span) and returns a ctx carrying the new span. The pipeline stages
// of Generator, the availability analysis and explain attach their own
// child spans when called through the *Context variants — only under such
// a span: without one they record nothing — so a caller that opens a root
// span around a run can print the whole tree with Span.Render.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span { return obs.FromContext(ctx) }

// MetricsHandler serves the process metrics registry in Prometheus text
// exposition format (what internal/server mounts on GET /metrics).
func MetricsHandler() http.Handler { return obs.Handler() }

// Logger returns the process-wide structured logger used by the library.
func Logger() *slog.Logger { return obs.Logger() }

// SetLogger swaps the process-wide structured logger; nil restores the
// default stderr text logger.
func SetLogger(l *slog.Logger) { obs.SetLogger(l) }

// --- Provenance & attribution (internal/explain) ---

type (
	// ExplainOptions tunes Explain (kernel, availability model, top-N
	// ranking cut-off, cut-set budget).
	ExplainOptions = explain.Options
	// ExplainReport is the provenance & attribution report: per-path
	// records and statistics, discovery trees and the availability
	// attribution.
	ExplainReport = explain.Report
	// ServiceProvenance is one atomic service's share of an ExplainReport.
	ServiceProvenance = explain.ServiceProvenance
	// PathRecord is the provenance of one discovered path.
	PathRecord = explain.PathRecord
	// PathStatistics aggregates a path set (lengths, direct/transitive
	// split, depth histogram).
	PathStatistics = explain.PathStatistics
	// DiscoveryTree is the prefix-merged view of an atomic service's paths,
	// rooted at the requester.
	DiscoveryTree = explain.TreeNode
	// Attribution ranks cut sets and components by their contribution to
	// service unavailability.
	Attribution = explain.Attribution
	// ComponentImportance is one component's Birnbaum and Fussell–Vesely
	// importance.
	ComponentImportance = explain.ComponentImportance
	// CutSetRecord is one minimal cut set with its unavailability share.
	CutSetRecord = explain.CutSetRecord
	// Validation is the freshness verdict of ValidateUPSIM.
	Validation = explain.Validation
	// ValidationIssue is one reason a cached generation is stale.
	ValidationIssue = explain.Issue
	// BudgetError is the structured analysis-budget exhaustion error
	// (cut-set expansion limits), carrying the budget kind, the atomic
	// service and the limit.
	BudgetError = depend.BudgetError
	// ReservedNameError rejects a device whose instance name has the
	// synthetic link component form "a--b#<edge>", which would be read
	// back as that link.
	ReservedNameError = depend.ReservedNameError
)

// Explain builds the provenance & attribution report for a generation: where
// every availability number comes from. The attribution runs on the compiled
// kernel.
func Explain(ctx context.Context, res *Result, opts ExplainOptions) (*ExplainReport, error) {
	return explain.Explain(ctx, res, opts)
}

// ValidateUPSIM checks a cached generation against a current topology
// diagram and reports whether its paths — and every analysis derived from
// them — still describe the infrastructure, with the reasons when not.
func ValidateUPSIM(ctx context.Context, res *Result, cur *ObjectDiagram) (*Validation, error) {
	return explain.Validate(ctx, res, cur)
}

// PathStatisticsOf aggregates a discovered path set.
func PathStatisticsOf(paths []Path) PathStatistics { return explain.Statistics(paths) }

// AsBudgetError unwraps a structured analysis-budget error from err.
func AsBudgetError(err error) (*BudgetError, bool) { return depend.AsBudgetError(err) }

// --- Live-topology what-if engine (internal/whatif) ---

type (
	// WhatIfEngine owns a live topology and the registered service
	// generations analysed against it: transient failure impact, permanent
	// topology deltas with in-place kernel patching and targeted cache
	// invalidation, critical-component ranking, and freshness
	// revalidation.
	WhatIfEngine = whatif.Engine
	// WhatIfFailure names failed components and/or links for an impact
	// query.
	WhatIfFailure = whatif.Failure
	// WhatIfImpact is the per-service outcome of a transient failure
	// query.
	WhatIfImpact = whatif.ImpactReport
	// WhatIfDelta is one topology mutation (add/remove node/link).
	WhatIfDelta = whatif.Delta
	// WhatIfApplyReport is the outcome of a permanent topology change:
	// patch counts, invalidated cache keys, per-service deltas.
	WhatIfApplyReport = whatif.ApplyReport
	// WhatIfServiceDelta is one service's availability delta.
	WhatIfServiceDelta = whatif.ServiceDelta
	// CriticalComponent is one entry of the critical-component ranking
	// (single points of failure, fragile pairs, importance join).
	CriticalComponent = whatif.CriticalComponent
)

// Topology delta kinds for WhatIfDelta.Op.
const (
	WhatIfAddNode    = whatif.OpAddNode
	WhatIfRemoveNode = whatif.OpRemoveNode
	WhatIfAddLink    = whatif.OpAddLink
	WhatIfRemoveLink = whatif.OpRemoveLink
)

// NewWhatIfEngine builds a what-if engine over a live topology. The
// engine's Apply mutates g, so pass a graph the caller owns (not one a
// Generator still generates against). c may be nil; when set, permanent
// changes and revalidation evict exactly the affected generations'
// cache-key families.
func NewWhatIfEngine(g *Graph, c *Cache) *WhatIfEngine { return whatif.New(g, c) }

// WhatIf answers the one-shot transient question — "if these components or
// links fail, what happens to the services?" — over a set of generated
// results, without mutating anything. It is a convenience wrapper over
// NewWhatIfEngine + Register + Impact; callers that mutate topology or need
// targeted cache invalidation use the engine directly.
func WhatIf(g *Graph, results map[string]*Result, model depend.AvailabilityModel, f WhatIfFailure) (*WhatIfImpact, error) {
	eng := whatif.New(g, nil)
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := eng.Register(name, "", results[name], model); err != nil {
			return nil, err
		}
	}
	return eng.Impact(f)
}
