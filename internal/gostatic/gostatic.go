// Package gostatic is a static-analysis engine over the repository's own Go
// source — the counterpart of internal/lint, one layer down. The lint engine
// checks the *models* the pipeline evaluates; gostatic checks the *code that
// evaluates them*: the compiled kernels' allocation-free warm paths, the
// span/End pairing of the observability instrumentation, sync.Pool Get/Put
// balance in kernel code, explicit json tags on every struct the HTTP API
// marshals, and no exported internal/* name that only tests use. Those
// invariants were previously enforced only by convention and after-the-fact
// tests; the analyzer makes them machine-checked on every CI run (see
// cmd/upsimvet and DESIGN.md §12).
//
// The engine is built purely on the standard library — go/parser, go/ast and
// go/token, no golang.org/x/tools — so the module stays dependency-free. It
// is deliberately syntactic: no type checking, no import resolution. Every
// rule is written against invariants the source spells out lexically (the
// //upsim:hotpath annotation, the json struct tag, the sync.Pool
// selector chain), which keeps a repo-wide run in the low milliseconds and
// the engine trivially portable.
//
// The design mirrors internal/lint: a Rule is a named, documented check with
// a fixed default severity; a Registry holds an ordered rule set; Run
// executes every rule against every loaded package (and a TreeRule once
// against the whole load) and aggregates the emitted Diagnostics into a
// severity-sorted Report with text and JSON renderers. The Severity scale
// is shared with internal/lint so both analyzers grade findings
// identically.
package gostatic

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"upsim/internal/lint"
	"upsim/internal/obs"
)

// Severity re-exports the shared three-level scale of internal/lint so both
// analyzers' reports grade findings identically.
type Severity = lint.Severity

// The shared severity levels (see lint.Severity).
const (
	SeverityInfo    = lint.SeverityInfo
	SeverityWarning = lint.SeverityWarning
	SeverityError   = lint.SeverityError
)

// Diagnostic is one finding: which rule fired, how severe it is, where in
// the source it anchors, what is wrong and how to fix it.
type Diagnostic struct {
	// Rule is the ID of the rule that emitted the diagnostic.
	Rule string `json:"rule"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// File is the path of the offending file as loaded.
	File string `json:"file"`
	// Line and Col locate the finding (1-based).
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message states the defect.
	Message string `json:"message"`
	// Hint suggests a fix (may be empty).
	Hint string `json:"hint,omitempty"`
}

// Pos renders the file:line:col anchor.
func (d Diagnostic) Pos() string { return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col) }

// String renders the diagnostic as one compiler-style line of analyzer
// output: pos leads so editors and CI annotations can link it.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s[%s] %s", d.Pos(), d.Severity, d.Rule, d.Message)
	if d.Hint != "" {
		s += " (fix: " + d.Hint + ")"
	}
	return s
}

// Package is one loaded Go package: its parsed files (comments included,
// tests excluded) plus the shared FileSet for positions.
type Package struct {
	// Name is the package name from the package clauses.
	Name string
	// Dir is the package directory as given to Load.
	Dir string
	// Fset is the token file set shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test files, parallel to Filenames.
	Files []*ast.File
	// Filenames are the file paths as loaded, parallel to Files.
	Filenames []string
}

// diag is the rule implementations' shared constructor: it resolves the
// position and fills the rule identity.
func (p *Package) diag(rule Rule, pos token.Pos, message, hint string) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		Rule:     rule.ID(),
		Severity: rule.Severity(),
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  message,
		Hint:     hint,
	}
}

// Rule is one static-analysis check over a loaded package. Implementations
// must be stateless and safe for concurrent use.
type Rule interface {
	// ID is the stable rule identifier, e.g. "hotalloc".
	ID() string
	// Severity is the default severity of the rule's diagnostics.
	Severity() Severity
	// Doc is a one-line description of what the rule checks.
	Doc() string
	// Check analyses one package and returns the rule's findings.
	Check(p *Package) []Diagnostic
}

// TreeRule is a Rule that also judges the load as a whole: Run calls
// CheckTree once with every loaded package, after the per-package Check
// calls. A rule needs it when a finding depends on uses outside the package
// that declares the name (testonly).
type TreeRule interface {
	Rule
	// CheckTree analyses all loaded packages together and returns the
	// rule's findings.
	CheckTree(pkgs []*Package) []Diagnostic
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
		return fmt.Errorf("gostatic: nil rule")
	}
	if rule.ID() == "" {
		return fmt.Errorf("gostatic: rule with empty ID")
	}
	if _, dup := r.byID[rule.ID()]; dup {
		return fmt.Errorf("gostatic: duplicate rule %q", rule.ID())
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

// Default returns a fresh registry holding every built-in rule. The registry
// is mutable, so callers may Register additional project-specific rules on
// top.
func Default() *Registry {
	r := NewRegistry()
	for _, rule := range builtinRules() {
		if err := r.Register(rule); err != nil {
			panic(err) // built-in IDs are unique by construction
		}
	}
	return r
}

// builtinRules returns the five shipped passes in registration order.
func builtinRules() []Rule {
	return []Rule{
		hotallocRule{},
		spanconvRule{},
		poolreturnRule{},
		jsontagRule{},
		testonlyRule{},
	}
}

// Per-rule observability, mirroring internal/lint: every diagnostic
// increments upsim_gostatic_diagnostics_total{rule,severity}; every engine
// invocation increments upsim_gostatic_runs_total.
var (
	mRuns = obs.NewCounter("upsim_gostatic_runs_total",
		"Static-analysis driver invocations.")
	mDiags = obs.NewCounter("upsim_gostatic_diagnostics_total",
		"Static-analysis diagnostics emitted.", "rule", "severity")
)

// Run executes every registered rule against every package, and every
// TreeRule once against the whole load, and aggregates the findings.
// Diagnostics are ordered by severity (errors first), then by position,
// then by rule ID, so the most urgent findings lead the report and the
// output is deterministic across runs.
func (r *Registry) Run(pkgs []*Package) (*Report, error) {
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("gostatic: no packages to analyse")
	}
	mRuns.With().Inc()
	rep := &Report{RulesRun: len(r.rules), Packages: len(pkgs)}
	add := func(rule Rule, diags []Diagnostic) {
		for _, d := range diags {
			if d.Rule == "" {
				d.Rule = rule.ID()
			}
			mDiags.With(d.Rule, d.Severity.String()).Inc()
			rep.Diagnostics = append(rep.Diagnostics, d)
		}
	}
	for _, p := range pkgs {
		for _, rule := range r.rules {
			add(rule, rule.Check(p))
		}
	}
	for _, rule := range r.rules {
		if tr, ok := rule.(TreeRule); ok {
			add(rule, tr.CheckTree(pkgs))
		}
	}
	sort.SliceStable(rep.Diagnostics, func(i, j int) bool {
		a, b := rep.Diagnostics[i], rep.Diagnostics[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	rep.count()
	return rep, nil
}
