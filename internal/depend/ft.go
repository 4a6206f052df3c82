package depend

import (
	"fmt"
)

// Fault trees are the failure-space dual of RBDs: the top event is "the
// service is unavailable". Section VII lists the fault tree as the second
// analysis target for a generated UPSIM; this file provides the gate algebra
// and the structure-to-FT transformation.

// FTNode is one node of a fault tree. Probability evaluates the node's
// failure probability assuming independent basic events; as with RBDs,
// repeated basic events make the result an approximation (exact analysis
// goes through ServiceStructure.Exact).
type FTNode interface {
	// Probability returns the probability of the node's event.
	Probability() (float64, error)
	// String renders the node.
	String() string
}

// BasicEvent is a leaf failure event with probability Q (typically the
// unavailability 1 − A of an UPSIM component).
type BasicEvent struct {
	Name string
	Q    float64
}

// Probability implements FTNode.
func (b BasicEvent) Probability() (float64, error) {
	if err := checkProb(b.Q, "failure probability of ", b.Name); err != nil {
		return 0, err
	}
	return b.Q, nil
}

// String implements FTNode.
func (b BasicEvent) String() string { return b.Name }

// AndGate fires iff all inputs fire (redundancy: everything must fail).
type AndGate []FTNode

// Probability implements FTNode.
func (g AndGate) Probability() (float64, error) {
	if len(g) == 0 {
		return 0, fmt.Errorf("depend: empty AND gate")
	}
	p := 1.0
	for _, in := range g {
		q, err := in.Probability()
		if err != nil {
			return 0, err
		}
		p *= q
	}
	return p, nil
}

// String implements FTNode.
func (g AndGate) String() string { return renderGate("AND", g) }

// OrGate fires iff any input fires (a series dependency: one failure
// suffices).
type OrGate []FTNode

// Probability implements FTNode.
func (g OrGate) Probability() (float64, error) {
	if len(g) == 0 {
		return 0, fmt.Errorf("depend: empty OR gate")
	}
	pNone := 1.0
	for _, in := range g {
		q, err := in.Probability()
		if err != nil {
			return 0, err
		}
		pNone *= 1 - q
	}
	return 1 - pNone, nil
}

// String implements FTNode.
func (g OrGate) String() string { return renderGate("OR", g) }

func renderGate(kind string, inputs []FTNode) string {
	out := kind + "("
	for i, in := range inputs {
		if i > 0 {
			out += ", "
		}
		out += in.String()
	}
	return out + ")"
}

// ToFaultTree transforms the service structure into its fault tree: the
// service fails (top OR) iff some atomic service fails; an atomic service
// fails (AND) iff every one of its redundant paths fails; a path fails (OR)
// iff any of its components fails. By construction the FT is the exact dual
// of ToRBD: Probability(top) == 1 − RBDApprox under the same independence
// assumption, which the tests verify.
func (s *ServiceStructure) ToFaultTree(avail map[string]float64) (FTNode, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := checkAvail(s, avail); err != nil {
		return nil, err
	}
	var top OrGate
	for _, a := range s.AtomicServices {
		var atomicFails AndGate
		for _, ps := range a.PathSets {
			var pathFails OrGate
			for _, c := range ps {
				pathFails = append(pathFails, BasicEvent{Name: c, Q: 1 - avail[c]})
			}
			atomicFails = append(atomicFails, pathFails)
		}
		top = append(top, atomicFails)
	}
	return top, nil
}

// topEventProbability is ToFaultTree(avail).Probability() without the gate
// tree: the same float operations in the same order as OrGate, AndGate and
// BasicEvent, so the value is bit-identical (the float64 conversions rule
// out fused multiply-subtract, as in seriesParallel). The caller has
// validated s and avail.
//
//upsim:hotpath the fault-tree stage of every analysis
func (s *ServiceStructure) topEventProbability(avail map[string]float64) float64 {
	topNone := 1.0
	for _, a := range s.AtomicServices {
		atomicFails := 1.0
		for _, ps := range a.PathSets {
			pathNone := 1.0
			for _, c := range ps {
				pathNone *= 1 - (1 - avail[c])
			}
			atomicFails *= 1 - float64(pathNone)
		}
		topNone *= 1 - float64(atomicFails)
	}
	return 1 - float64(topNone)
}
