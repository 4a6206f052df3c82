package depend

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustA(t *testing.T, b Block) float64 {
	t.Helper()
	a, err := b.Availability()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBasicBlock(t *testing.T) {
	if got := mustA(t, Basic{Name: "c", A: 0.99}); got != 0.99 {
		t.Errorf("basic = %v", got)
	}
	if _, err := (Basic{Name: "bad", A: 1.5}).Availability(); err == nil {
		t.Error("availability > 1 should fail")
	}
	if _, err := (Basic{Name: "bad", A: -0.1}).Availability(); err == nil {
		t.Error("negative availability should fail")
	}
	if _, err := (Basic{Name: "nan", A: math.NaN()}).Availability(); err == nil {
		t.Error("NaN availability should fail")
	}
}

func TestSeriesParallel(t *testing.T) {
	s := Series{Basic{A: 0.9}, Basic{A: 0.8}}
	if got := mustA(t, s); math.Abs(got-0.72) > 1e-12 {
		t.Errorf("series = %v", got)
	}
	p := Parallel{Basic{A: 0.9}, Basic{A: 0.8}}
	if got := mustA(t, p); math.Abs(got-0.98) > 1e-12 {
		t.Errorf("parallel = %v", got)
	}
	// Nesting: the bridge-free diamond a-(b|c)-d.
	diamond := Series{
		Basic{Name: "a", A: 0.99},
		Parallel{Basic{Name: "b", A: 0.9}, Basic{Name: "c", A: 0.9}},
		Basic{Name: "d", A: 0.99},
	}
	want := 0.99 * (1 - 0.1*0.1) * 0.99
	if got := mustA(t, diamond); math.Abs(got-want) > 1e-12 {
		t.Errorf("diamond = %v, want %v", got, want)
	}
	if _, err := (Series{}).Availability(); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := (Parallel{}).Availability(); err == nil {
		t.Error("empty parallel should fail")
	}
	if !strings.Contains(diamond.String(), "series(") || !strings.Contains(diamond.String(), "parallel(") {
		t.Errorf("String = %q", diamond.String())
	}
}

func TestKofN(t *testing.T) {
	blocks := []Block{Basic{A: 0.9}, Basic{A: 0.9}, Basic{A: 0.9}}
	// 2-of-3 with p=0.9: 3*0.81*0.1 + 0.729 = 0.972.
	k := KofN{K: 2, Blocks: blocks}
	if got := mustA(t, k); math.Abs(got-0.972) > 1e-12 {
		t.Errorf("2-of-3 = %v", got)
	}
	// 1-of-n == parallel; n-of-n == series.
	par := mustA(t, KofN{K: 1, Blocks: blocks})
	if math.Abs(par-mustA(t, Parallel(blocks))) > 1e-12 {
		t.Errorf("1-of-3 = %v != parallel", par)
	}
	ser := mustA(t, KofN{K: 3, Blocks: blocks})
	if math.Abs(ser-mustA(t, Series(blocks))) > 1e-12 {
		t.Errorf("3-of-3 = %v != series", ser)
	}
	// Heterogeneous probabilities.
	het := KofN{K: 2, Blocks: []Block{Basic{A: 0.5}, Basic{A: 0.6}, Basic{A: 0.7}}}
	got := mustA(t, het)
	manual := 0.5*0.6*(1-0.7) + 0.5*(1-0.6)*0.7 + (1-0.5)*0.6*0.7 + 0.5*0.6*0.7
	if math.Abs(got-manual) > 1e-12 {
		t.Errorf("heterogeneous 2-of-3 = %v, want %v", got, manual)
	}
	if _, err := (KofN{K: 0, Blocks: blocks}).Availability(); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := (KofN{K: 4, Blocks: blocks}).Availability(); err == nil {
		t.Error("k>n should fail")
	}
	if _, err := (KofN{K: 1}).Availability(); err == nil {
		t.Error("empty k-of-n should fail")
	}
	if !strings.Contains(k.String(), "2-of-3") {
		t.Errorf("String = %q", k.String())
	}
}

func TestErrorPropagation(t *testing.T) {
	bad := Basic{Name: "bad", A: 2}
	for _, b := range []Block{
		Series{bad}, Parallel{bad}, KofN{K: 1, Blocks: []Block{bad}},
	} {
		if _, err := b.Availability(); err == nil {
			t.Errorf("%T must propagate child errors", b)
		}
	}
}

// Properties: series ≤ min(child), parallel ≥ max(child), and all results
// stay within [0,1].
func TestBlockAlgebraProperties(t *testing.T) {
	norm := func(x uint16) float64 { return float64(x%1001) / 1000 }
	f := func(a, b, c uint16) bool {
		pa, pb, pc := norm(a), norm(b), norm(c)
		blocks := []Block{Basic{A: pa}, Basic{A: pb}, Basic{A: pc}}
		minP := math.Min(pa, math.Min(pb, pc))
		maxP := math.Max(pa, math.Max(pb, pc))
		s, err := Series(blocks).Availability()
		if err != nil || s < 0 || s > 1 || s > minP+1e-12 {
			return false
		}
		p, err := Parallel(blocks).Availability()
		if err != nil || p < 0 || p > 1 || p < maxP-1e-12 {
			return false
		}
		// k-of-n is monotone decreasing in k.
		prev := 1.0
		for k := 1; k <= 3; k++ {
			v, err := (KofN{K: k, Blocks: blocks}).Availability()
			if err != nil || v > prev+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

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
