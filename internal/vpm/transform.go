package vpm

import (
	"fmt"
)

// This file provides the rule-based transformation engine that replaces
// VIATRA2's abstract-state-machine transformation programs. A Machine runs
// named rules; each rule couples a graph pattern with an action executed
// once per match. RunOnce applies a single sweep; RunToFixpoint iterates a
// rule until it produces no further matches (with an iteration bound to
// guard against non-terminating rule systems).

// Rule couples a pattern with an action. The action may freely modify the
// model space; matches are computed before the sweep starts, so a rule sees
// a consistent snapshot of its own trigger set.
type Rule struct {
	Name    string
	Pattern *Pattern
	// When is an optional guard evaluated per match; a nil guard accepts
	// every match.
	When func(s *ModelSpace, b Binding) bool
	// Action is executed once per accepted match.
	Action func(s *ModelSpace, b Binding) error
}

// validate checks rule completeness.
func (r *Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("vpm: rule without name")
	}
	if r.Pattern == nil {
		return fmt.Errorf("vpm: rule %s: nil pattern", r.Name)
	}
	if r.Action == nil {
		return fmt.Errorf("vpm: rule %s: nil action", r.Name)
	}
	return r.Pattern.Validate()
}

// Machine executes transformation rules against one model space.
type Machine struct {
	space *ModelSpace
	rules map[string]*Rule
	order []string
	// Trace, when non-nil, receives one line per rule application.
	Trace func(rule string, b Binding)
}

// NewMachine creates a transformation machine over the given space.
func NewMachine(s *ModelSpace) *Machine {
	return &Machine{space: s, rules: make(map[string]*Rule)}
}

// AddRule registers a rule. Rule names are unique.
func (m *Machine) AddRule(r *Rule) error {
	if r == nil {
		return fmt.Errorf("vpm: nil rule")
	}
	if err := r.validate(); err != nil {
		return err
	}
	if _, dup := m.rules[r.Name]; dup {
		return fmt.Errorf("vpm: duplicate rule %s", r.Name)
	}
	m.rules[r.Name] = r
	m.order = append(m.order, r.Name)
	return nil
}

// RunOnce matches the named rule once and applies its action to every
// accepted match, returning the number of applications.
func (m *Machine) RunOnce(name string, seed Binding) (int, error) {
	r, ok := m.rules[name]
	if !ok {
		return 0, fmt.Errorf("vpm: unknown rule %s", name)
	}
	matches, err := r.Pattern.Match(m.space, seed)
	if err != nil {
		return 0, fmt.Errorf("vpm: rule %s: %w", name, err)
	}
	applied := 0
	for _, b := range matches {
		if r.When != nil && !r.When(m.space, b) {
			continue
		}
		if m.Trace != nil {
			m.Trace(name, b)
		}
		if err := r.Action(m.space, b); err != nil {
			return applied, fmt.Errorf("vpm: rule %s: action: %w", name, err)
		}
		applied++
	}
	return applied, nil
}

// RunSequence executes the given rules once each, in order, accumulating the
// application count. It aborts on the first error.
func (m *Machine) RunSequence(names ...string) (int, error) {
	total := 0
	for _, n := range names {
		applied, err := m.RunOnce(n, nil)
		total += applied
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
