// Package lint is a static-analysis engine over the four model artifacts of
// the UPSIM methodology: the UML model (profiles, classes, associations),
// the deployed topology (object diagram / graph view), the composite-service
// description (activity diagram) and the service mapping. The pipeline of
// Steps 5–8 silently assumes well-formed inputs — every atomic service has a
// mapping pair, every pair names objects that exist and are connected, and
// every component carries the MTBF/MTTR attributes the Section VII
// dependability analysis needs. The lint engine checks those assumptions
// up front, without executing path discovery, and reports every violation
// at once as structured diagnostics.
//
// The design follows go/analysis: a Rule is a named, documented check with a
// fixed default severity; a Registry holds an ordered rule set; Run executes
// every rule against an Input and aggregates the emitted Diagnostics into a
// Report with text and JSON renderers. Adding a rule means implementing the
// four-method Rule interface and registering it — no engine changes.
//
// Rules never mutate the artifacts and run in O(model size): reachability
// questions use a union-find over the topology graph instead of path
// enumeration, so linting a model is cheap enough to run as a pre-flight
// gate before every generation (see core.Options.Lint).
package lint

import (
	"fmt"
	"sort"

	"upsim/internal/mapping"
	"upsim/internal/obs"
	"upsim/internal/service"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

// Severity grades a diagnostic. Error-severity findings mean a pipeline run
// or a downstream analysis over the model would fail or be silently wrong;
// warnings flag likely modelling mistakes; infos are advisory.
type Severity uint8

const (
	// SeverityInfo is advisory.
	SeverityInfo Severity = iota
	// SeverityWarning flags a likely modelling mistake that does not stop
	// the pipeline.
	SeverityWarning
	// SeverityError flags a defect that breaks generation or corrupts a
	// downstream analysis.
	SeverityError
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// MarshalText implements encoding.TextMarshaler (JSON renders severities as
// their names).
func (s Severity) MarshalText() ([]byte, error) {
	switch s {
	case SeverityInfo, SeverityWarning, SeverityError:
		return []byte(s.String()), nil
	}
	return nil, fmt.Errorf("lint: unknown severity %d", uint8(s))
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "info":
		*s = SeverityInfo
	case "warning":
		*s = SeverityWarning
	case "error":
		*s = SeverityError
	default:
		return fmt.Errorf("lint: unknown severity %q", b)
	}
	return nil
}

// Diagnostic is one finding: which rule fired, how severe it is, which model
// element it concerns, what is wrong and how to fix it.
type Diagnostic struct {
	// Rule is the ID of the rule that emitted the diagnostic.
	Rule string `json:"rule"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Element locates the offending model element, e.g. `pair "print"` or
	// `class "C6500"`.
	Element string `json:"element"`
	// Message states the defect.
	Message string `json:"message"`
	// Hint suggests a fix (may be empty).
	Hint string `json:"hint,omitempty"`
}

// String renders the diagnostic as one line of linter output.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s[%s] %s: %s", d.Severity, d.Rule, d.Element, d.Message)
	if d.Hint != "" {
		s += " (fix: " + d.Hint + ")"
	}
	return s
}

// Input bundles the artifacts one lint run analyses. Model is required;
// every other artifact is optional — rules skip checks whose inputs are
// absent, so the same registry serves full pre-flight validation (model +
// diagram + service + mapping) and narrower runs (topology-only, model-only).
type Input struct {
	// Model is the UML model under analysis (required).
	Model *uml.Model
	// Diagram is the infrastructure object diagram, if topology checks are
	// wanted.
	Diagram *uml.ObjectDiagram
	// Graph is the graph view of Diagram. NewInput derives it; callers
	// assembling an Input by hand may supply a standalone graph (e.g. a
	// synthetic topology) without any diagram.
	Graph *topology.Graph
	// Service is the composite service whose mapping coverage is checked.
	Service *service.Composite
	// Mapping is the service mapping under analysis.
	Mapping *mapping.Mapping
}

// NewInput assembles the lint input for a model: the named object diagram is
// resolved and its graph view derived. diagramName may be empty when the
// model has no object diagrams; svc and mp may be nil. Unlike the generator,
// NewInput does not pre-validate the model — surfacing validation issues is
// the lint engine's job.
func NewInput(m *uml.Model, diagramName string, svc *service.Composite, mp *mapping.Mapping) (*Input, error) {
	if m == nil {
		return nil, fmt.Errorf("lint: nil model")
	}
	in := &Input{Model: m, Service: svc, Mapping: mp}
	if diagramName != "" {
		d, ok := m.Diagram(diagramName)
		if !ok {
			return nil, fmt.Errorf("lint: model %q has no object diagram %q", m.Name(), diagramName)
		}
		in.Diagram = d
		in.Graph = topology.FromObjectDiagram(d)
	}
	return in, nil
}

// Rule is one static-analysis check. Implementations must be stateless and
// safe for concurrent use; Check reports findings by returning Diagnostics
// (typically built with the rule's own ID and Severity).
type Rule interface {
	// ID is the stable rule identifier, e.g. "mapping-dangling-ref".
	ID() string
	// Severity is the default severity of the rule's diagnostics.
	Severity() Severity
	// Doc is a one-line description of what the rule checks.
	Doc() string
	// Check analyses the input and returns the rule's findings.
	Check(in *Input) []Diagnostic
}

// Registry is an ordered set of rules keyed by ID.
type Registry struct {
	rules []Rule
	byID  map[string]Rule
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byID: make(map[string]Rule)} }

// Register adds a rule. Duplicate IDs are rejected.
func (r *Registry) Register(rule Rule) error {
	if rule == nil {
		return fmt.Errorf("lint: nil rule")
	}
	if rule.ID() == "" {
		return fmt.Errorf("lint: rule with empty ID")
	}
	if _, dup := r.byID[rule.ID()]; dup {
		return fmt.Errorf("lint: duplicate rule %q", rule.ID())
	}
	r.byID[rule.ID()] = rule
	r.rules = append(r.rules, rule)
	return nil
}

// Rules returns the registered rules in registration order.
func (r *Registry) Rules() []Rule {
	out := make([]Rule, len(r.rules))
	copy(out, r.rules)
	return out
}

// Default returns a fresh registry holding every built-in rule (see
// rules.go). The registry is mutable, so callers may Register additional
// project-specific rules on top.
func Default() *Registry {
	r := NewRegistry()
	for _, rule := range builtinRules() {
		if err := r.Register(rule); err != nil {
			panic(err) // built-in IDs are unique by construction
		}
	}
	return r
}

// Per-rule observability: every diagnostic increments
// upsim_lint_diagnostics_total{rule,severity}; every engine invocation
// increments upsim_lint_runs_total. Exposed on GET /metrics (internal/obs).
var (
	mRuns = obs.NewCounter("upsim_lint_runs_total",
		"Lint engine invocations.")
	mDiags = obs.NewCounter("upsim_lint_diagnostics_total",
		"Lint diagnostics emitted.", "rule", "severity")
)

// Run executes every registered rule against the input and aggregates the
// findings. Diagnostics are ordered by severity (errors first), then by rule
// registration order, then by emission order, so the most urgent findings
// lead the report.
func (r *Registry) Run(in *Input) (*Report, error) {
	if in == nil || in.Model == nil {
		return nil, fmt.Errorf("lint: nil input or model")
	}
	if in.Graph == nil && in.Diagram != nil {
		in = &Input{
			Model:   in.Model,
			Diagram: in.Diagram,
			Graph:   topology.FromObjectDiagram(in.Diagram),
			Service: in.Service,
			Mapping: in.Mapping,
		}
	}
	mRuns.With().Inc()
	rep := &Report{RulesRun: len(r.rules)}
	for _, rule := range r.rules {
		for _, d := range rule.Check(in) {
			if d.Rule == "" {
				d.Rule = rule.ID()
			}
			mDiags.With(d.Rule, d.Severity.String()).Inc()
			rep.Diagnostics = append(rep.Diagnostics, d)
		}
	}
	// Severity descending; the stable sort preserves rule registration and
	// emission order within each severity class.
	sort.SliceStable(rep.Diagnostics, func(i, j int) bool {
		return rep.Diagnostics[i].Severity > rep.Diagnostics[j].Severity
	})
	rep.count()
	return rep, nil
}
