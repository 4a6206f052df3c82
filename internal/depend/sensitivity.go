package depend

import (
	"fmt"
	"sort"

	"upsim/internal/core"
	"upsim/internal/uml"
)

// Section VII highlights that "changes to intrinsic properties of network
// devices (MTBF, redundant components, manufacturer, etc.) can be performed
// directly in the class description and so reflect to all objects in the
// service infrastructure model". This file quantifies that lever: the
// sensitivity of the user-perceived service availability to each *class's*
// MTBF and MTTR, aggregated over every instance of the class in the UPSIM.
// It answers the procurement question "which hardware class is worth
// upgrading for this user?".

// ClassSensitivity is the sensitivity record for one component class.
type ClassSensitivity struct {
	// Class is the class (or association) name.
	Class string
	// Instances counts the UPSIM components of this class on discovered
	// paths.
	Instances int
	// DAvailDMTBF is ∂A_service/∂MTBF_class in 1/hours: the availability
	// gained per additional hour of class MTBF.
	DAvailDMTBF float64
	// DAvailDMTTR is ∂A_service/∂MTTR_class in 1/hours (negative: longer
	// repairs hurt).
	DAvailDMTTR float64
}

// SensitivityReport ranks classes by |∂A/∂MTBF|.
type SensitivityReport struct {
	Classes []ClassSensitivity
}

// Sensitivity computes the class-level availability sensitivities for a
// generation result. For every component the chain rule gives
//
//	∂A_sys/∂MTBF_c = Σ_{i : class(i)=c} Birnbaum_i · ∂A_i/∂MTBF
//	∂A_i/∂MTBF     = MTTR / (MTBF+MTTR)²
//	∂A_i/∂MTTR     = −MTBF / (MTBF+MTTR)²
//
// using the exact (Formula-free) component availability; Birnbaum factors
// come from the exact structure-function engine. Devices aggregate by class
// name, links by association name.
func Sensitivity(res *core.Result) (*SensitivityReport, error) {
	_, cs, avail, err := FromResult(res, ModelExact)
	if err != nil {
		return nil, err
	}
	up, down, err := cs.Importances(avail)
	if err != nil {
		return nil, err
	}
	for i := range up {
		up[i] -= down[i]
	}
	return SensitivityOf(res, cs.Components(), up)
}

// SensitivityOf is Sensitivity over Birnbaum importances the caller already
// holds: comps are the structure's components under ModelExact and
// birnbaum[i] is the importance of comps[i], as CompiledStructure.Importances
// yields them. Explain shares one factoring pass between its component
// ranking and the class report this way.
func SensitivityOf(res *core.Result, comps []string, birnbaum []float64) (*SensitivityReport, error) {
	if res == nil || res.Source == nil {
		return nil, fmt.Errorf("depend: nil generation result")
	}
	if len(birnbaum) != len(comps) {
		return nil, fmt.Errorf("depend: %d Birnbaum importances for %d components", len(birnbaum), len(comps))
	}
	agg := make(map[string]*ClassSensitivity)
	for i, comp := range comps {
		cls, mtbfV, mttrV, err := ComponentSource(res.Source, comp)
		if err != nil {
			return nil, err
		}
		mtbf, mttr := mtbfV.AsReal(), mttrV.AsReal()
		denom := (mtbf + mttr) * (mtbf + mttr)
		if denom == 0 {
			return nil, fmt.Errorf("depend: component %q has zero MTBF+MTTR", comp)
		}
		cs, ok := agg[cls]
		if !ok {
			cs = &ClassSensitivity{Class: cls}
			agg[cls] = cs
		}
		cs.Instances++
		cs.DAvailDMTBF += birnbaum[i] * mttr / denom
		cs.DAvailDMTTR -= birnbaum[i] * mtbf / denom
	}
	rep := &SensitivityReport{}
	for _, cs := range agg {
		rep.Classes = append(rep.Classes, *cs)
	}
	sort.Slice(rep.Classes, func(i, j int) bool {
		a, b := rep.Classes[i], rep.Classes[j]
		if a.DAvailDMTBF != b.DAvailDMTBF {
			return a.DAvailDMTBF > b.DAvailDMTBF
		}
		return a.Class < b.Class
	})
	return rep, nil
}

// ComponentSource resolves a structure component id against the source
// diagram src: a LinkComponentID names the link with that edge index
// (src.LinkAt), any other id an instance. It returns the link's association
// or the instance's class name, and the element's MTBF and MTTR attribute
// values.
func ComponentSource(src *uml.ObjectDiagram, comp string) (class string, mtbf, mttr uml.Value, err error) {
	if edgeID, isLink := parseLinkComponent(comp); isLink {
		if edgeID < 0 || edgeID >= src.NumLinks() {
			return "", mtbf, mttr, fmt.Errorf("depend: link component %q references unknown edge", comp)
		}
		l := src.LinkAt(edgeID)
		mtbf, _ = l.Property("MTBF")
		mttr, _ = l.Property("MTTR")
		return l.Association().Name(), mtbf, mttr, nil
	}
	inst, ok := src.Instance(comp)
	if !ok {
		return "", mtbf, mttr, fmt.Errorf("depend: component %q not in source diagram", comp)
	}
	mtbf, _ = inst.Property("MTBF")
	mttr, _ = inst.Property("MTTR")
	return inst.Classifier().Name(), mtbf, mttr, nil
}

// parseLinkComponent recognises the LinkComponentID format "a--b#<edge>".
func parseLinkComponent(comp string) (edgeID int, ok bool) {
	hash := -1
	for i := len(comp) - 1; i >= 0; i-- {
		if comp[i] == '#' {
			hash = i
			break
		}
	}
	if hash < 0 || !containsSep(comp[:hash]) {
		return 0, false
	}
	id := 0
	if hash == len(comp)-1 {
		return 0, false
	}
	for _, c := range comp[hash+1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + int(c-'0')
	}
	return id, true
}

func containsSep(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '-' && s[i+1] == '-' {
			return true
		}
	}
	return false
}
