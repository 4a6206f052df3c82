// Package service implements the service model of the UPSIM methodology
// (Section II and V-A2): composite services described as UML activity
// diagrams whose actions are atomic services — indivisible abstractions of
// infrastructure, application or business functionality (Definition 1,
// adopted from Milanovic et al.). A composite service is composed of and
// only of two or more atomic services; atomic services are still abstract at
// this level and become concrete only through the service mapping (package
// mapping).
package service

import (
	"fmt"

	"upsim/internal/mapping"
	"upsim/internal/uml"
)

// Composite is a composite service backed by a validated UML activity
// diagram. The service description stays independent of the infrastructure:
// "the same service description can be used to describe a service for
// arbitrary pairs in any network that provides the atomic services"
// (Section VI-C).
type Composite struct {
	activity *uml.Activity
	atomics  []string
	stages   [][]string
}

// FromActivity wraps and validates a UML activity diagram as a composite
// service. The diagram must be well-formed and reference at least two atomic
// services (a composite of fewer atomic services would itself be atomic,
// Section II).
func FromActivity(act *uml.Activity) (*Composite, error) {
	if act == nil {
		return nil, fmt.Errorf("service: nil activity")
	}
	stages, err := act.Stages()
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", act.Name(), err)
	}
	atomics := act.ActionNames()
	if len(atomics) < 2 {
		return nil, fmt.Errorf("service: %s: a composite service needs at least two atomic services, has %d",
			act.Name(), len(atomics))
	}
	return &Composite{activity: act, atomics: atomics, stages: stages}, nil
}

// NewSequential builds a strictly sequential composite service (the shape of
// the paper's printing service, Figure 10) in the given model.
func NewSequential(m *uml.Model, name string, atomics ...string) (*Composite, error) {
	return NewStaged(m, name, toStages(atomics))
}

func toStages(atomics []string) [][]string {
	stages := make([][]string, 0, len(atomics))
	for _, a := range atomics {
		stages = append(stages, []string{a})
	}
	return stages
}

// NewStaged builds a composite service from execution stages: the atomic
// services of one stage run in parallel (separated by fork/join figures, as
// in Figure 2), stages run in sequence.
func NewStaged(m *uml.Model, name string, stages [][]string) (*Composite, error) {
	if m == nil {
		return nil, fmt.Errorf("service: nil model")
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("service: %s: no stages", name)
	}
	act, err := m.NewActivity(name)
	if err != nil {
		return nil, err
	}
	prev := act.Initial()
	for si, stage := range stages {
		if len(stage) == 0 {
			return nil, fmt.Errorf("service: %s: stage %d is empty", name, si)
		}
		if len(stage) == 1 {
			n, err := act.AddAction(stage[0])
			if err != nil {
				return nil, err
			}
			if err := act.Flow(prev, n); err != nil {
				return nil, err
			}
			prev = n
			continue
		}
		fork := act.AddFork()
		join := act.AddJoin()
		if err := act.Flow(prev, fork); err != nil {
			return nil, err
		}
		for _, aName := range stage {
			n, err := act.AddAction(aName)
			if err != nil {
				return nil, err
			}
			if err := act.Flow(fork, n); err != nil {
				return nil, err
			}
			if err := act.Flow(n, join); err != nil {
				return nil, err
			}
		}
		prev = join
	}
	final := act.AddFinal()
	if err := act.Flow(prev, final); err != nil {
		return nil, err
	}
	return FromActivity(act)
}

// Name returns the composite service name.
func (c *Composite) Name() string { return c.activity.Name() }

// AtomicServices returns the atomic service names in modelling order. Every
// atomic service is executed during the composite service (Section V-A2).
func (c *Composite) AtomicServices() []string {
	out := make([]string, len(c.atomics))
	copy(out, c.atomics)
	return out
}

// Stages returns the execution stages: stage i+1 starts after every atomic
// service of stage i completed; services within a stage run in parallel.
func (c *Composite) Stages() [][]string {
	out := make([][]string, len(c.stages))
	for i, s := range c.stages {
		out[i] = append([]string(nil), s...)
	}
	return out
}

// AppendStages appends the execution stages as fmt's %v prints Stages(),
// "[[a b] [c]]", without copying them.
func (c *Composite) AppendStages(b []byte) []byte {
	b = append(b, '[')
	for i, stage := range c.stages {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '[')
		for j, a := range stage {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, a...)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// CheckMapping verifies that the mapping provides a pair for every atomic
// service of the composite. Pairs for atomic services outside the composite
// are permitted and ignored ("they will be ignored when the corresponding
// atomic service is irrelevant for the analyzed service", Section VI-D).
func (c *Composite) CheckMapping(m *mapping.Mapping) error {
	if m == nil {
		return fmt.Errorf("service: %s: nil mapping", c.Name())
	}
	var missing []string
	for _, a := range c.atomics {
		if _, ok := m.Pair(a); !ok {
			missing = append(missing, a)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("service: %s: mapping lacks pairs for atomic services %q", c.Name(), missing)
	}
	return nil
}

// RelevantPairs returns the mapping pairs for exactly this composite's
// atomic services, in execution order (stage by stage).
func (c *Composite) RelevantPairs(m *mapping.Mapping) ([]mapping.Pair, error) {
	if err := c.CheckMapping(m); err != nil {
		return nil, err
	}
	out := make([]mapping.Pair, 0, len(c.atomics))
	for _, stage := range c.stages {
		for _, a := range stage {
			p, _ := m.Pair(a)
			out = append(out, p)
		}
	}
	return out, nil
}
