package gostatic

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report aggregates the findings of one analyzer run. The JSON shape is
// stable and round-trips (TestReportJSONRoundTrip) — the same contract as
// lint.Report, so CI pipelines consume both analyzers' reports with the same
// tooling.
type Report struct {
	// Diagnostics are the findings, errors first, position-sorted within a
	// severity class.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Errors, Warnings and Infos count the diagnostics per severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
	// RulesRun is the number of rules executed.
	RulesRun int `json:"rulesRun"`
	// Packages is the number of packages analysed.
	Packages int `json:"packages"`
}

// count recomputes the per-severity tallies from Diagnostics.
func (r *Report) count() {
	r.Errors, r.Warnings, r.Infos = 0, 0, 0
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case SeverityError:
			r.Errors++
		case SeverityWarning:
			r.Warnings++
		case SeverityInfo:
			r.Infos++
		}
	}
}

// Clean reports whether the run produced no diagnostics at all.
func (r *Report) Clean() bool { return len(r.Diagnostics) == 0 }

// Summary renders the one-line tally, e.g. "2 errors, 1 warning, 0 infos
// (5 rules, 23 packages)".
func (r *Report) Summary() string {
	plural := func(n int, word string) string {
		if n == 1 {
			return fmt.Sprintf("%d %s", n, word)
		}
		return fmt.Sprintf("%d %ss", n, word)
	}
	return fmt.Sprintf("%s, %s, %s (%d rules, %s)",
		plural(r.Errors, "error"), plural(r.Warnings, "warning"), plural(r.Infos, "info"),
		r.RulesRun, plural(r.Packages, "package"))
}

// Render writes the human-readable report: one compiler-style line per
// diagnostic followed by the summary line.
func (r *Report) Render(w io.Writer) error {
	for _, d := range r.Diagnostics {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "upsimvet:", r.Summary())
	return err
}

// EncodeJSON writes the report as indented JSON.
func (r *Report) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("gostatic: encode report: %w", err)
	}
	return nil
}
