package depend

import (
	"math"
	"testing"
)

func TestSensitivity(t *testing.T) {
	res := analysisFixture(t, 1e6)
	rep, err := Sensitivity(res)
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[string]ClassSensitivity{}
	for _, cs := range rep.Classes {
		byClass[cs.Class] = cs
	}
	// Fixture classes: Client (t1), Switch (sw, c1, c2, sw2), Server (srv),
	// plus the three link associations.
	cl, ok := byClass["Client"]
	if !ok || cl.Instances != 1 {
		t.Fatalf("Client sensitivity = %+v", cl)
	}
	sw, ok := byClass["Switch"]
	if !ok || sw.Instances != 4 {
		t.Fatalf("Switch sensitivity = %+v (instances %d, want 4)", sw, sw.Instances)
	}
	// The client dominates: its MTBF derivative must exceed every other
	// class's even though four switches aggregate.
	for name, cs := range byClass {
		if name == "Client" {
			continue
		}
		if cs.DAvailDMTBF >= cl.DAvailDMTBF {
			t.Errorf("class %s dMTBF %v >= Client %v", name, cs.DAvailDMTBF, cl.DAvailDMTBF)
		}
	}
	// Derivative signs: MTBF helps, MTTR hurts.
	for _, cs := range rep.Classes {
		if cs.DAvailDMTBF < 0 {
			t.Errorf("class %s dMTBF = %v, want >= 0", cs.Class, cs.DAvailDMTBF)
		}
		if cs.DAvailDMTTR > 0 {
			t.Errorf("class %s dMTTR = %v, want <= 0", cs.Class, cs.DAvailDMTTR)
		}
	}
	// Ranking is by descending MTBF sensitivity.
	for i := 1; i < len(rep.Classes); i++ {
		if rep.Classes[i].DAvailDMTBF > rep.Classes[i-1].DAvailDMTBF {
			t.Error("report not sorted")
		}
	}
}

func TestSensitivityMatchesFiniteDifference(t *testing.T) {
	// Verify the analytic client derivative against a finite difference of
	// the exact availability.
	res := analysisFixture(t, 1e6)
	rep, err := Sensitivity(res)
	if err != nil {
		t.Fatal(err)
	}
	var client ClassSensitivity
	for _, cs := range rep.Classes {
		if cs.Class == "Client" {
			client = cs
		}
	}
	st, _, avail, err := FromResult(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := oracleExact(st, avail)
	// Perturb the client's availability as a +1h MTBF change would.
	const mtbf, mttr = 3000.0, 24.0
	delta := 1.0
	aNew := (mtbf + delta) / (mtbf + delta + mttr)
	bumped := cloneAvail(avail)
	bumped["t1"] = aNew
	perturbed, _ := oracleExact(st, bumped)
	fd := (perturbed - base) / delta
	if math.Abs(fd-client.DAvailDMTBF) > 1e-9 {
		t.Errorf("finite difference %v vs analytic %v", fd, client.DAvailDMTBF)
	}
}

func TestParseLinkComponent(t *testing.T) {
	cases := []struct {
		in string
		id int
		ok bool
	}{
		{"a--b#7", 7, true},
		{"c1--d4#30", 30, true},
		{"t1", 0, false},
		{"weird#3", 0, false}, // no separator: a device name with a hash
		{"a--b#", 0, false},   // missing id
		{"a--b#x1", 0, false}, // non-numeric id
		{"a--b", 0, false},    // no hash
	}
	for _, c := range cases {
		id, ok := parseLinkComponent(c.in)
		if id != c.id || ok != c.ok {
			t.Errorf("parseLinkComponent(%q) = %d, %v; want %d, %v", c.in, id, ok, c.id, c.ok)
		}
	}
}

func TestSensitivityErrors(t *testing.T) {
	if _, err := Sensitivity(nil); err == nil {
		t.Error("nil result should fail")
	}
}
