// Package depend implements the user-perceived service dependability
// analysis sketched in Section VII of the paper: steady-state availability
// of individual components from their MTBF/MTTR attributes (Formula 1),
// reliability block diagrams (RBDs), fault trees, and exact and simulative
// evaluation of the service structure function built from the UPSIM's
// redundant paths. The companion paper "[20] A. Dittrich and R. Rezende,
// Model-driven evaluation of user-perceived service availability" is only
// available on request; this package implements the analysis the outlook
// section specifies: "Such analysis can be performed by transforming the
// UPSIM to a reliability block diagram (RBD) or fault-tree (FT), in which
// entities correspond to components of the UPSIM."
package depend

import (
	"fmt"
)

// Availability returns the steady-state availability of a component with
// the given mean time between failures and mean time to repair:
//
//	A = MTBF / (MTBF + MTTR)
//
// which is the standard renewal-theory result for alternating up/down
// processes.
func Availability(mtbf, mttr float64) (float64, error) {
	if err := checkTimes(mtbf, mttr); err != nil {
		return 0, err
	}
	return mtbf / (mtbf + mttr), nil
}

// AvailabilityFormula1 returns the paper's Formula 1,
//
//	A = 1 − MTTR/MTBF,
//
// the first-order approximation of Availability for MTTR ≪ MTBF. The
// experiments report the delta between the two (it is below 1e-4 for every
// component class of the case study). For MTTR ≥ MTBF the approximation
// would go non-positive; that is reported as an error.
func AvailabilityFormula1(mtbf, mttr float64) (float64, error) {
	if err := checkTimes(mtbf, mttr); err != nil {
		return 0, err
	}
	a := 1 - mttr/mtbf
	if a <= 0 {
		return 0, fmt.Errorf("depend: Formula 1 breaks down for MTTR (%v) >= MTBF (%v)", mttr, mtbf)
	}
	return a, nil
}

func checkTimes(mtbf, mttr float64) error {
	if mtbf <= 0 {
		return fmt.Errorf("depend: MTBF %v must be positive", mtbf)
	}
	if mttr < 0 {
		return fmt.Errorf("depend: MTTR %v must be non-negative", mttr)
	}
	return nil
}

// Unavailability returns 1 − Availability(mtbf, mttr).
func Unavailability(mtbf, mttr float64) (float64, error) {
	a, err := Availability(mtbf, mttr)
	if err != nil {
		return 0, err
	}
	return 1 - a, nil
}

// checkProb validates a probability value. The label is what+name, e.g.
// "availability of " + "c1", and is only assembled when p is invalid, so
// the per-component checks of the analysis loops allocate nothing.
func checkProb(p float64, what, name string) error {
	if p < 0 || p > 1 || p != p {
		return fmt.Errorf("depend: %s%s %v outside [0,1]", what, name, p)
	}
	return nil
}
