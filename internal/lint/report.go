package lint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Report aggregates the findings of one lint run. The JSON shape is stable
// and round-trips through DecodeReport, so CI pipelines and the HTTP API can
// consume machine-readable reports.
type Report struct {
	// Diagnostics are the findings, errors first.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Errors, Warnings and Infos count the diagnostics per severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
	// RulesRun is the number of rules executed.
	RulesRun int `json:"rulesRun"`
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

// HasErrors reports whether any error-severity diagnostic was emitted.
func (r *Report) HasErrors() bool { return r.Errors > 0 }

// Summary renders the one-line tally, e.g. "2 errors, 1 warning, 0 infos
// (13 rules)".
func (r *Report) Summary() string {
	plural := func(n int, word string) string {
		if n == 1 {
			return fmt.Sprintf("%d %s", n, word)
		}
		return fmt.Sprintf("%d %ss", n, word)
	}
	return fmt.Sprintf("%s, %s, %s (%d rules)",
		plural(r.Errors, "error"), plural(r.Warnings, "warning"), plural(r.Infos, "info"), r.RulesRun)
}

// Render writes the human-readable report: one line per diagnostic followed
// by the summary line.
func (r *Report) Render(w io.Writer) error {
	for _, d := range r.Diagnostics {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "lint:", r.Summary())
	return err
}

// EncodeJSON writes the report as indented JSON.
func (r *Report) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("lint: encode report: %w", err)
	}
	return nil
}

// DecodeReport reads a report previously written by EncodeJSON, recomputing
// the severity tallies from the decoded diagnostics so a hand-edited count
// cannot disagree with the payload.
func DecodeReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("lint: decode report: %w", err)
	}
	r.count()
	return &r, nil
}

// Err converts error-severity findings into a Go error carrying the report
// (nil when the report has none). This is what the generator's fail-fast
// lint gate returns.
func (r *Report) Err() error {
	if !r.HasErrors() {
		return nil
	}
	return &Error{Report: r}
}

// Error is the error form of a report with error-severity findings.
type Error struct {
	Report *Report
}

// Error implements the error interface: the first finding plus the tally.
func (e *Error) Error() string {
	first := ""
	for _, d := range e.Report.Diagnostics {
		if d.Severity == SeverityError {
			first = ": " + d.String()
			break
		}
	}
	return fmt.Sprintf("lint: %s%s", e.Report.Summary(), first)
}

// AsError extracts a *lint.Error from err, if present.
func AsError(err error) (*Error, bool) {
	var le *Error
	if errors.As(err, &le) {
		return le, true
	}
	return nil, false
}
