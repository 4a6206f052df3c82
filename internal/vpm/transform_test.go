package vpm

import (
	"fmt"
	"strings"
	"testing"
)

func TestMachineRunOnce(t *testing.T) {
	s := topoFixture(t)
	m := NewMachine(s)
	out, _ := s.EnsureEntity("out")
	rule := &Rule{
		Name: "copy-devices",
		Pattern: &Pattern{
			Name:        "devices",
			Vars:        []string{"d"},
			Constraints: []Constraint{TypeOf{"d", "meta.Device"}},
		},
		Action: func(s *ModelSpace, b Binding) error {
			_, err := s.NewEntity(out, b["d"].Name())
			return err
		},
	}
	if err := m.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	n, err := m.RunOnce("copy-devices", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("applications = %d, want 2", n)
	}
	if _, ok := s.Lookup("out.t1"); !ok {
		t.Error("out.t1 missing")
	}
	if _, ok := s.Lookup("out.t2"); !ok {
		t.Error("out.t2 missing")
	}
	if m.Space() != s {
		t.Error("Space accessor broken")
	}
}

func TestMachineGuard(t *testing.T) {
	s := topoFixture(t)
	m := NewMachine(s)
	count := 0
	rule := &Rule{
		Name: "guarded",
		Pattern: &Pattern{
			Name:        "devices",
			Vars:        []string{"d"},
			Constraints: []Constraint{TypeOf{"d", "meta.Device"}},
		},
		When: func(s *ModelSpace, b Binding) bool {
			return b["d"].Name() == "t1"
		},
		Action: func(s *ModelSpace, b Binding) error {
			count++
			return nil
		},
	}
	if err := m.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	n, err := m.RunOnce("guarded", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || count != 1 {
		t.Errorf("guarded applications = %d/%d, want 1/1", n, count)
	}
}

func TestMachineTrace(t *testing.T) {
	s := topoFixture(t)
	m := NewMachine(s)
	var traced []string
	m.Trace = func(rule string, b Binding) {
		traced = append(traced, rule+":"+b["d"].Name())
	}
	rule := &Rule{
		Name: "r",
		Pattern: &Pattern{
			Name:        "devices",
			Vars:        []string{"d"},
			Constraints: []Constraint{TypeOf{"d", "meta.Device"}},
		},
		Action: func(s *ModelSpace, b Binding) error { return nil },
	}
	_ = m.AddRule(rule)
	if _, err := m.RunOnce("r", nil); err != nil {
		t.Fatal(err)
	}
	if len(traced) != 2 || !strings.HasPrefix(traced[0], "r:") {
		t.Errorf("trace = %v", traced)
	}
}

func TestMachineFixpoint(t *testing.T) {
	// Rule marks unmarked devices; fixpoint reached after one sweep plus an
	// empty verification sweep.
	s := topoFixture(t)
	m := NewMachine(s)
	rule := &Rule{
		Name: "mark",
		Pattern: &Pattern{
			Name:        "unmarked",
			Vars:        []string{"d"},
			Constraints: []Constraint{TypeOf{"d", "meta.Device"}, ValueIs{"d", ""}},
		},
		Action: func(s *ModelSpace, b Binding) error {
			b["d"].SetValue("marked")
			return nil
		},
	}
	if err := m.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	total, err := m.RunToFixpoint("mark", nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Errorf("fixpoint applications = %d, want 2", total)
	}
}

func TestMachineFixpointDiverges(t *testing.T) {
	s := NewSpace()
	base, _ := s.EnsureEntity("base")
	m := NewMachine(s)
	i := 0
	rule := &Rule{
		Name:    "grow",
		Pattern: &Pattern{Name: "base", Vars: []string{"e"}, Constraints: []Constraint{NameIs{"e", "base"}}},
		Action: func(s *ModelSpace, b Binding) error {
			i++
			_, err := s.NewEntity(base, fmt.Sprintf("n%d", i))
			return err
		},
	}
	if err := m.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunToFixpoint("grow", nil, 5); err == nil {
		t.Error("divergent rule must hit the sweep bound")
	}
	if _, err := m.RunToFixpoint("grow", nil, 0); err == nil {
		t.Error("non-positive bound must fail")
	}
}

func TestMachineErrors(t *testing.T) {
	s := NewSpace()
	m := NewMachine(s)
	if err := m.AddRule(nil); err == nil {
		t.Error("nil rule should fail")
	}
	if err := m.AddRule(&Rule{}); err == nil {
		t.Error("unnamed rule should fail")
	}
	if err := m.AddRule(&Rule{Name: "x"}); err == nil {
		t.Error("rule without pattern should fail")
	}
	p := &Pattern{Name: "p", Vars: []string{"a"}}
	if err := m.AddRule(&Rule{Name: "x", Pattern: p}); err == nil {
		t.Error("rule without action should fail")
	}
	ok := &Rule{Name: "x", Pattern: p, Action: func(*ModelSpace, Binding) error { return nil }}
	if err := m.AddRule(ok); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRule(ok); err == nil {
		t.Error("duplicate rule should fail")
	}
	if _, err := m.RunOnce("ghost", nil); err == nil {
		t.Error("unknown rule should fail")
	}
	if r, found := m.Rule("x"); !found || r != ok {
		t.Error("Rule lookup failed")
	}
	if _, found := m.Rule("ghost"); found {
		t.Error("Rule(ghost) should be absent")
	}
}

func TestMachineActionError(t *testing.T) {
	s := topoFixture(t)
	m := NewMachine(s)
	rule := &Rule{
		Name: "fail",
		Pattern: &Pattern{
			Name:        "devices",
			Vars:        []string{"d"},
			Constraints: []Constraint{TypeOf{"d", "meta.Device"}},
		},
		Action: func(s *ModelSpace, b Binding) error {
			return fmt.Errorf("boom")
		},
	}
	_ = m.AddRule(rule)
	n, err := m.RunOnce("fail", nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
	if n != 0 {
		t.Errorf("applied = %d before failure, want 0", n)
	}
}

func TestMachineRunSequence(t *testing.T) {
	s := topoFixture(t)
	m := NewMachine(s)
	mk := func(name, typ string) *Rule {
		return &Rule{
			Name: name,
			Pattern: &Pattern{
				Name:        name,
				Vars:        []string{"e"},
				Constraints: []Constraint{TypeOf{"e", typ}},
			},
			Action: func(*ModelSpace, Binding) error { return nil },
		}
	}
	_ = m.AddRule(mk("devs", "meta.Device"))
	_ = m.AddRule(mk("sws", "meta.Switch"))
	n, err := m.RunSequence("devs", "sws")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("sequence applications = %d, want 4", n)
	}
	if _, err := m.RunSequence("devs", "ghost"); err == nil {
		t.Error("sequence with unknown rule should fail")
	}
}

// Space returns the machine's model space.
func (m *Machine) Space() *ModelSpace { return m.space }

// Rule looks up a registered rule by name.
func (m *Machine) Rule(name string) (*Rule, bool) {
	r, ok := m.rules[name]
	return r, ok
}

// RunToFixpoint repeats RunOnce until a sweep applies zero actions, or
// maxSweeps sweeps have run. It returns the total number of applications.
// Reaching the sweep bound is an error: the rule system does not terminate.
func (m *Machine) RunToFixpoint(name string, seed Binding, maxSweeps int) (int, error) {
	if maxSweeps <= 0 {
		return 0, fmt.Errorf("vpm: RunToFixpoint: non-positive sweep bound %d", maxSweeps)
	}
	total := 0
	for i := 0; i < maxSweeps; i++ {
		n, err := m.RunOnce(name, seed)
		total += n
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
	}
	return total, fmt.Errorf("vpm: rule %s did not reach a fixpoint within %d sweeps", name, maxSweeps)
}
