// Package rbdgen implements the complementary model transformation the
// paper defers to its companion report — "We present this complementary
// transformation to RBDs in [20]" (A. Dittrich, R. Rezende, "Model-driven
// evaluation of user-perceived service availability", 2013, available on
// request): the generated UPSIM is transformed into a reliability block
// diagram *model*, materialised inside the same VPM model space that holds
// the UPSIM and the discovered paths.
//
// The transformation runs on the vpm transformation machine with
// declarative rules over the path store that Step 7 left behind
// (paths.<upsim>.<atomic service>.p<i>):
//
//	rbd.<upsim>                      (series over atomic services)
//	└── <atomic service>             (parallel over redundant paths)
//	    └── p<i>                     (series over path components)
//	        └── <component>          (basic block, value = availability)
//
// The resulting entity tree is itself a model: it can be rendered (Render),
// evaluated by conversion to depend blocks (ToBlock) and inspected with
// VTCL patterns like any other model-space content.
package rbdgen

import (
	"fmt"
	"strconv"
	"strings"

	"upsim/internal/depend"
	"upsim/internal/vpm"
)

// Kind values stored on RBD series and parallel entities (a basic block
// stores its availability instead).
const (
	KindSeries   = "series"
	KindParallel = "parallel"
)

// RootFQN returns the model-space FQN of the generated RBD for a UPSIM.
func RootFQN(upsimName string) string { return "rbd." + upsimName }

// Transform builds the RBD model for the named UPSIM from its stored paths,
// using transformation rules on the model space. avail supplies the basic
// block availabilities keyed by component name (device names; the stored
// path strings carry devices — connectors are annotated onto the series
// blocks by the caller if needed, see depend.FromResult for the full
// component model).
func Transform(space *vpm.ModelSpace, upsimName string, avail map[string]float64) (*vpm.Entity, error) {
	if space == nil {
		return nil, fmt.Errorf("rbdgen: nil model space")
	}
	pathsRoot, ok := space.Lookup("paths." + upsimName)
	if !ok {
		return nil, fmt.Errorf("rbdgen: no stored paths for UPSIM %q (generate it first)", upsimName)
	}
	if _, dup := space.Lookup(RootFQN(upsimName)); dup {
		return nil, fmt.Errorf("rbdgen: RBD for %q already generated", upsimName)
	}
	root, err := space.EnsureEntity(RootFQN(upsimName))
	if err != nil {
		return nil, err
	}
	root.SetValue(KindSeries)

	machine := vpm.NewMachine(space)

	// Rule 1: every atomic service below the path store becomes a parallel
	// block under the RBD root.
	atomicRule := &vpm.Rule{
		Name: "atomic-to-parallel",
		Pattern: &vpm.Pattern{
			Name:        "atomics",
			Vars:        []string{"A"},
			Constraints: []vpm.Constraint{vpm.Below{Var: "A", AncestorFQN: pathsRoot.FQN()}},
		},
		When: func(_ *vpm.ModelSpace, b vpm.Binding) bool {
			return b["A"].Parent() == pathsRoot
		},
		Action: func(s *vpm.ModelSpace, b vpm.Binding) error {
			e, err := s.NewEntity(root, b["A"].Name())
			if err != nil {
				return err
			}
			e.SetValue(KindParallel)
			_, err = s.NewRelation("derivedFrom", e, b["A"])
			return err
		},
	}
	// Rule 2: every stored path becomes a series block under its atomic's
	// parallel block, with one basic block per path component.
	pathRule := &vpm.Rule{
		Name: "path-to-series",
		Pattern: &vpm.Pattern{
			Name:        "paths",
			Vars:        []string{"P"},
			Constraints: []vpm.Constraint{vpm.Below{Var: "P", AncestorFQN: pathsRoot.FQN()}},
		},
		When: func(_ *vpm.ModelSpace, b vpm.Binding) bool {
			p := b["P"]
			return p.Parent() != pathsRoot && p.Value() != ""
		},
		Action: func(s *vpm.ModelSpace, b vpm.Binding) error {
			p := b["P"]
			parallel, ok := root.Child(p.Parent().Name())
			if !ok {
				return fmt.Errorf("rbdgen: parallel block for %q missing", p.Parent().Name())
			}
			series, err := s.NewEntity(parallel, p.Name())
			if err != nil {
				return err
			}
			series.SetValue(KindSeries)
			for _, comp := range strings.Split(p.Value(), "—") {
				basic, err := s.NewEntity(series, comp)
				if err != nil {
					return err
				}
				a, ok := avail[comp]
				if !ok {
					return fmt.Errorf("rbdgen: no availability for component %q", comp)
				}
				basic.SetValue(strconv.FormatFloat(a, 'g', -1, 64))
			}
			return nil
		},
	}
	if err := machine.AddRule(atomicRule); err != nil {
		return nil, err
	}
	if err := machine.AddRule(pathRule); err != nil {
		return nil, err
	}
	if _, err := machine.RunSequence("atomic-to-parallel", "path-to-series"); err != nil {
		// Leave no partial RBD behind.
		_ = space.DeleteEntity(root)
		return nil, err
	}
	if len(root.Children()) == 0 {
		_ = space.DeleteEntity(root)
		return nil, fmt.Errorf("rbdgen: UPSIM %q has no stored atomic services", upsimName)
	}
	return root, nil
}

// ToBlock converts a generated RBD entity tree into an evaluatable
// depend.Block.
func ToBlock(root *vpm.Entity) (depend.Block, error) {
	if root == nil {
		return nil, fmt.Errorf("rbdgen: nil RBD root")
	}
	switch root.Value() {
	case KindSeries:
		kids := root.Children()
		if len(kids) == 0 {
			return nil, fmt.Errorf("rbdgen: empty series block %q", root.FQN())
		}
		var s depend.Series
		for _, k := range kids {
			b, err := ToBlock(k)
			if err != nil {
				return nil, err
			}
			s = append(s, b)
		}
		return s, nil
	case KindParallel:
		kids := root.Children()
		if len(kids) == 0 {
			return nil, fmt.Errorf("rbdgen: empty parallel block %q", root.FQN())
		}
		var p depend.Parallel
		for _, k := range kids {
			b, err := ToBlock(k)
			if err != nil {
				return nil, err
			}
			p = append(p, b)
		}
		return p, nil
	default:
		a, err := strconv.ParseFloat(root.Value(), 64)
		if err != nil {
			return nil, fmt.Errorf("rbdgen: basic block %q has no availability: %v", root.FQN(), err)
		}
		return depend.Basic{Name: root.Name(), A: a}, nil
	}
}

// Render prints the RBD tree as an indented diagram.
func Render(root *vpm.Entity) string {
	var b strings.Builder
	var rec func(e *vpm.Entity, depth int)
	rec = func(e *vpm.Entity, depth int) {
		indent := strings.Repeat("  ", depth)
		label := e.Name()
		switch e.Value() {
		case KindSeries, KindParallel:
			fmt.Fprintf(&b, "%s%s [%s]\n", indent, label, e.Value())
		default:
			fmt.Fprintf(&b, "%s%s (A=%s)\n", indent, label, e.Value())
		}
		for _, c := range e.Children() {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}
