package depend

import (
	"fmt"
	"math"
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

// KofN is available iff at least K of its children are available. KofN with
// K=1 degenerates to Parallel, K=len to Series.
type KofN struct {
	K      int
	Blocks []Block
}

// Availability implements Block. Children may have heterogeneous
// availabilities; the evaluation uses the standard dynamic programming over
// "exactly j of the first i blocks available".
func (k KofN) Availability() (float64, error) {
	n := len(k.Blocks)
	if n == 0 {
		return 0, fmt.Errorf("depend: empty k-of-n block")
	}
	if k.K < 1 || k.K > n {
		return 0, fmt.Errorf("depend: k-of-n with k=%d, n=%d", k.K, n)
	}
	probs := make([]float64, n)
	for i, b := range k.Blocks {
		a, err := b.Availability()
		if err != nil {
			return 0, err
		}
		probs[i] = a
	}
	// dp[j] = P(exactly j of the blocks seen so far are available).
	dp := make([]float64, n+1)
	dp[0] = 1
	for i := 0; i < n; i++ {
		for j := i + 1; j >= 1; j-- {
			dp[j] = dp[j]*(1-probs[i]) + dp[j-1]*probs[i]
		}
		dp[0] *= 1 - probs[i]
	}
	sum := 0.0
	for j := k.K; j <= n; j++ {
		sum += dp[j]
	}
	// Clamp tiny floating error.
	return math.Min(1, math.Max(0, sum)), nil
}

// String implements Block.
func (k KofN) String() string {
	return fmt.Sprintf("%d-of-%d%s", k.K, len(k.Blocks), renderBlocks("", k.Blocks))
}

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
