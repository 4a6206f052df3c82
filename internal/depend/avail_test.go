package depend

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAvailability(t *testing.T) {
	tests := []struct {
		mtbf, mttr, want float64
	}{
		{60000, 0.1, 60000.0 / 60000.1},
		{3000, 24, 3000.0 / 3024.0},
		{100, 100, 0.5},
		{1, 0, 1},
	}
	for _, tt := range tests {
		got, err := Availability(tt.mtbf, tt.mttr)
		if err != nil {
			t.Fatalf("Availability(%v, %v): %v", tt.mtbf, tt.mttr, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Availability(%v, %v) = %v, want %v", tt.mtbf, tt.mttr, got, tt.want)
		}
	}
}

func TestAvailabilityFormula1(t *testing.T) {
	// The paper's approximation: A = 1 − MTTR/MTBF.
	got, err := AvailabilityFormula1(3000, 24)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.992) > 1e-12 {
		t.Errorf("Formula1(3000,24) = %v, want 0.992", got)
	}
	// It approximates the exact value from below for MTTR>0.
	exact, _ := Availability(3000, 24)
	if got >= exact {
		t.Errorf("Formula 1 (%v) should underestimate exact (%v)", got, exact)
	}
	// Breakdown for MTTR >= MTBF.
	if _, err := AvailabilityFormula1(10, 10); err == nil {
		t.Error("Formula1 with MTTR == MTBF should fail")
	}
}

func TestAvailabilityErrors(t *testing.T) {
	if _, err := Availability(0, 1); err == nil {
		t.Error("zero MTBF should fail")
	}
	if _, err := Availability(-1, 1); err == nil {
		t.Error("negative MTBF should fail")
	}
	if _, err := Availability(1, -1); err == nil {
		t.Error("negative MTTR should fail")
	}
	if _, err := Unavailability(0, 1); err == nil {
		t.Error("Unavailability must validate too")
	}
}

// TestProbabilityErrorTexts pins the out-of-range messages of every
// probability check: the labels are assembled only on failure, and the text
// must stay what it was when they were built eagerly.
func TestProbabilityErrorTexts(t *testing.T) {
	s := &ServiceStructure{AtomicServices: []AtomicStructure{
		{Name: "svc", PathSets: []PathSet{{"c1", "c2"}}},
	}}
	for _, tc := range []struct {
		p    float64
		text string // the %v rendering of p
	}{
		{math.NaN(), "NaN"},
		{-0.1, "-0.1"},
		{1.5, "1.5"},
	} {
		avail := map[string]float64{"c1": 0.9, "c2": tc.p}
		wantAvail := "depend: availability of c2 " + tc.text + " outside [0,1]"
		for _, got := range []struct {
			what string
			err  func() error
			want string
		}{
			{"compiled Exact", func() error { _, err := Compile(s).Exact(avail); return err }, wantAvail},
			{"legacy Exact", func() error { _, err := s.Exact(avail); return err }, wantAvail},
			{"Basic.Availability", func() error { _, err := (Basic{Name: "b", A: tc.p}).Availability(); return err },
				"depend: availability of b " + tc.text + " outside [0,1]"},
			{"BasicEvent.Probability", func() error { _, err := (BasicEvent{Name: "e", Q: tc.p}).Probability(); return err },
				"depend: failure probability of e " + tc.text + " outside [0,1]"},
		} {
			err := got.err()
			if err == nil || err.Error() != got.want {
				t.Errorf("%s with %s: error %v, want %q", got.what, tc.text, err, got.want)
			}
		}
	}
}

func TestUnavailability(t *testing.T) {
	u, err := Unavailability(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-0.5) > 1e-12 {
		t.Errorf("Unavailability = %v", u)
	}
}

// Properties: availability is in (0,1], monotone increasing in MTBF and
// decreasing in MTTR, and Formula 1 is always a lower bound when defined.
func TestAvailabilityProperties(t *testing.T) {
	gen := func(raw uint16) float64 { return 1 + float64(raw%10000) }
	inRange := func(m, r uint16) bool {
		a, err := Availability(gen(m), gen(r))
		return err == nil && a > 0 && a <= 1
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Error(err)
	}
	monotone := func(m, r uint16) bool {
		mtbf, mttr := gen(m), gen(r)
		a1, _ := Availability(mtbf, mttr)
		a2, _ := Availability(mtbf*2, mttr)
		a3, _ := Availability(mtbf, mttr*2)
		return a2 >= a1 && a3 <= a1
	}
	if err := quick.Check(monotone, nil); err != nil {
		t.Error(err)
	}
	bound := func(m, r uint16) bool {
		mtbf := gen(m) + 10000 // ensure MTBF > MTTR
		mttr := gen(r)
		f1, err := AvailabilityFormula1(mtbf, mttr)
		if err != nil {
			return true
		}
		exact, _ := Availability(mtbf, mttr)
		return f1 <= exact
	}
	if err := quick.Check(bound, nil); err != nil {
		t.Error(err)
	}
}
