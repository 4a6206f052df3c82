package depend

import (
	"math"
	"strings"
	"testing"
)

func TestBasicEvent(t *testing.T) {
	p, err := BasicEvent{Name: "e", Q: 0.01}.Probability()
	if err != nil || p != 0.01 {
		t.Errorf("basic event = %v, %v", p, err)
	}
	if _, err := (BasicEvent{Name: "bad", Q: -1}).Probability(); err == nil {
		t.Error("negative probability should fail")
	}
}

func TestGates(t *testing.T) {
	and := AndGate{BasicEvent{Q: 0.1}, BasicEvent{Q: 0.2}}
	if p, _ := and.Probability(); math.Abs(p-0.02) > 1e-12 {
		t.Errorf("AND = %v", p)
	}
	or := OrGate{BasicEvent{Q: 0.1}, BasicEvent{Q: 0.2}}
	if p, _ := or.Probability(); math.Abs(p-0.28) > 1e-12 {
		t.Errorf("OR = %v", p)
	}
	if _, err := (AndGate{}).Probability(); err == nil {
		t.Error("empty AND should fail")
	}
	if _, err := (OrGate{}).Probability(); err == nil {
		t.Error("empty OR should fail")
	}
	bad := BasicEvent{Q: 2}
	for _, g := range []FTNode{AndGate{bad}, OrGate{bad}} {
		if _, err := g.Probability(); err == nil {
			t.Errorf("%T must propagate child errors", g)
		}
	}
	if !strings.Contains(and.String(), "AND(") || !strings.Contains(or.String(), "OR(") {
		t.Error("gate rendering broken")
	}
}

func TestFaultTreeDuality(t *testing.T) {
	// 1 − P(top event) must equal the RBD approximation for any structure,
	// since the FT is the exact failure-space dual of the RBD.
	for name, build := range map[string]func() (*ServiceStructure, map[string]float64){
		"simple": simpleStructure,
		"shared": sharedStructure,
	} {
		st, avail := build()
		ft, err := st.ToFaultTree(avail)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ft.Probability()
		if err != nil {
			t.Fatal(err)
		}
		rbd, err := st.RBDApprox(avail)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs((1-q)-rbd) > 1e-12 {
			t.Errorf("%s: 1-FT (%v) != RBD (%v)", name, 1-q, rbd)
		}
	}
}

func TestToFaultTreeValidates(t *testing.T) {
	bad := &ServiceStructure{}
	if _, err := bad.ToFaultTree(nil); err == nil {
		t.Error("invalid structure should fail")
	}
	st, avail := simpleStructure()
	delete(avail, "a")
	if _, err := st.ToFaultTree(avail); err == nil {
		t.Error("missing availability should fail")
	}
}
