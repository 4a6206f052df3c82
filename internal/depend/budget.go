package depend

import (
	"errors"
	"fmt"
)

// BudgetKind names which expansion budget a BudgetError reports.
type BudgetKind string

const (
	// BudgetServicePathSets is the cross-product bound of ServicePathSets:
	// the product of the per-atomic path counts exceeded the limit.
	BudgetServicePathSets BudgetKind = "service-path-sets"
	// BudgetTransversal is the intermediate transversal bound of
	// MinimalCutSets: one atomic service's hitting-set expansion exceeded
	// the limit.
	BudgetTransversal BudgetKind = "transversal"
)

// BudgetError reports an exhausted set-expansion budget. ServicePathSets
// and MinimalCutSets return it,
// so callers can distinguish "the analysis is too large for this limit"
// from a malformed input and surface the offending atomic service and the
// budget that was hit — instead of parsing the error string. Error()
// reproduces the historical messages exactly; the equivalence tests pin the
// compiled kernel and its map-based reference to identical strings.
type BudgetError struct {
	// Kind is the budget that was exhausted.
	Kind BudgetKind
	// AtomicService names the offending atomic service (transversal budget
	// only; the path-set cross product spans the whole composite).
	AtomicService string
	// Need is the required expansion size, when it is known up front
	// (path-set cross product only).
	Need int
	// Limit is the budget that was exceeded.
	Limit int
}

// Error renders the historical message for the budget kind.
func (e *BudgetError) Error() string {
	switch {
	case e.Kind == BudgetServicePathSets:
		return fmt.Sprintf("depend: service path-set expansion needs %d unions, limit %d", e.Need, e.Limit)
	case e.AtomicService != "":
		return fmt.Sprintf("depend: atomic service %q: transversal expansion exceeds limit %d", e.AtomicService, e.Limit)
	default:
		return fmt.Sprintf("transversal expansion exceeds limit %d", e.Limit)
	}
}

// forAtomic returns a copy of the error attributed to the named atomic
// service — the wrap point where MinimalCutSets prefixes the transversal
// message.
func (e *BudgetError) forAtomic(name string) *BudgetError {
	ne := *e
	ne.AtomicService = name
	return &ne
}

// AsBudgetError extracts a BudgetError from an error chain.
func AsBudgetError(err error) (*BudgetError, bool) {
	var be *BudgetError
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}
