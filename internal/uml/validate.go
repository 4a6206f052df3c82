package uml

import (
	"errors"
	"fmt"
)

// ValidationIssue describes a single well-formedness violation found by
// Validate, with enough context to locate the offending element.
type ValidationIssue struct {
	Element string // element kind and name, e.g. `class "C6500"`
	Problem string
}

// Error implements the error interface.
func (v ValidationIssue) Error() string { return v.Element + ": " + v.Problem }

// ValidationError aggregates all issues found in one Validate pass so that
// callers can report every problem at once instead of fixing them one by
// one.
type ValidationError struct {
	Issues []ValidationIssue
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	if len(e.Issues) == 1 {
		return "uml: invalid model: " + e.Issues[0].Error()
	}
	return fmt.Sprintf("uml: invalid model: %d issues, first: %s", len(e.Issues), e.Issues[0].Error())
}

// AsValidationError extracts a *ValidationError from err, if present.
func AsValidationError(err error) (*ValidationError, bool) {
	var ve *ValidationError
	if errors.As(err, &ve) {
		return ve, true
	}
	return nil, false
}

// Validate checks the model-level well-formedness rules the methodology
// depends on:
//
//   - every class used by an object diagram belongs to the model (enforced
//     structurally) and classes that represent devices carry the
//     availability attributes the profile demands,
//   - every association joins two classes of the model (structural),
//   - any class or association stereotyped as a Component (availability
//     profile, Figure 6) must have values for all Component attributes, so
//     that "a subsequent service dependability analysis will find specific
//     required properties for every element" (Section V-E),
//   - all activity diagrams are well-formed (see Activity.Validate).
//
// Validate returns a *ValidationError listing every violation, or nil.
func (m *Model) Validate() error {
	var issues []ValidationIssue
	add := func(elem, format string, args ...any) {
		issues = append(issues, ValidationIssue{Element: elem, Problem: fmt.Sprintf(format, args...)})
	}

	for _, c := range m.Classes() {
		c.EachApplication(func(app *StereotypeApplication) {
			app.Stereotype().EachAttribute(func(def AttributeDef) {
				if _, ok := app.Get(def.Name); !ok {
					add(fmt.Sprintf("class %q", c.Name()),
						"stereotype %s attribute %s has no value", app.Stereotype().Name(), def.Name)
				}
			})
		})
	}
	for _, a := range m.Associations() {
		a.EachApplication(func(app *StereotypeApplication) {
			app.Stereotype().EachAttribute(func(def AttributeDef) {
				if _, ok := app.Get(def.Name); !ok {
					add(fmt.Sprintf("association %q", a.Name()),
						"stereotype %s attribute %s has no value", app.Stereotype().Name(), def.Name)
				}
			})
		})
	}
	for _, act := range m.Activities() {
		if err := act.Validate(); err != nil {
			add(fmt.Sprintf("activity %q", act.Name()), "%v", err)
		}
	}
	if len(issues) > 0 {
		return &ValidationError{Issues: issues}
	}
	return nil
}
