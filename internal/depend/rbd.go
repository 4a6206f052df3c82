package depend

import (
	"fmt"
)

// Block is one node of a reliability block diagram. Evaluation assumes
// stochastically independent blocks; shared components across blocks make
// the RBD an approximation of the true structure function — use
// ServiceStructure.Exact for the exact value (the exact/RBD delta is one of
// the reported experiments).
type Block interface {
	// Availability returns the block's steady-state availability.
	Availability() (float64, error)
	// String renders the block structure.
	String() string
}

// Basic is a leaf block with a fixed availability, typically one UPSIM
// component evaluated via Formula 1.
type Basic struct {
	Name string
	A    float64
}

// Availability implements Block.
func (b Basic) Availability() (float64, error) {
	if err := checkProb(b.A, "availability of ", b.Name); err != nil {
		return 0, err
	}
	return b.A, nil
}

// String implements Block.
func (b Basic) String() string { return b.Name }

// Series is the serial composition: available iff every child is available.
type Series []Block

// Availability implements Block.
func (s Series) Availability() (float64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("depend: empty series block")
	}
	a := 1.0
	for _, b := range s {
		ba, err := b.Availability()
		if err != nil {
			return 0, err
		}
		a *= ba
	}
	return a, nil
}

// String implements Block.
func (s Series) String() string { return renderBlocks("series", s) }

// Parallel is the redundant composition: available iff at least one child is
// available.
type Parallel []Block

// Availability implements Block.
func (p Parallel) Availability() (float64, error) {
	if len(p) == 0 {
		return 0, fmt.Errorf("depend: empty parallel block")
	}
	q := 1.0
	for _, b := range p {
		ba, err := b.Availability()
		if err != nil {
			return 0, err
		}
		q *= 1 - ba
	}
	return 1 - q, nil
}

// String implements Block.
func (p Parallel) String() string { return renderBlocks("parallel", p) }

func renderBlocks(kind string, blocks []Block) string {
	out := kind + "("
	for i, b := range blocks {
		if i > 0 {
			out += ", "
		}
		out += b.String()
	}
	return out + ")"
}
