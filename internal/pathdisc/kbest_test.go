package pathdisc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"upsim/internal/testutil"
	"upsim/internal/topology"
)

// throughputResolver builds an EdgeCostFunc over an edge-ID → Mbps table;
// absent IDs fall back to the hop cost, like edges without the stereotype.
func throughputResolver(mbps map[int]float64) EdgeCostFunc {
	return func(edgeID int) (float64, bool) {
		v, ok := mbps[edgeID]
		return v, ok
	}
}

// bruteKShortest is the reference oracle: enumerate every simple path, rank
// by the documented total order — cost under the kernel's own PathCost fold
// (bit-identical floats), then node-name sequence, then edge-ID sequence —
// and keep the first k. Power-of-two throughputs in the tests make the
// dyadic cost sums exact, so even "coincidental" cost ties are reproduced
// rather than rounded apart.
func bruteKShortest(t *testing.T, c *Compiled, g *topology.Graph, src, dst string, k int, metric CostMetric) []Path {
	t.Helper()
	all, _, err := oracleAllPaths(g, src, dst, Options{})
	if err != nil {
		t.Fatalf("brute force enumeration: %v", err)
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		ca, cb := c.PathCost(metric, a), c.PathCost(metric, b)
		if ca != cb {
			return ca < cb
		}
		for x := 0; x < len(a.Nodes) && x < len(b.Nodes); x++ {
			if a.Nodes[x] != b.Nodes[x] {
				return a.Nodes[x] < b.Nodes[x]
			}
		}
		if len(a.Nodes) != len(b.Nodes) {
			return len(a.Nodes) < len(b.Nodes)
		}
		for x := 0; x < len(a.Edges) && x < len(b.Edges); x++ {
			if a.Edges[x] != b.Edges[x] {
				return a.Edges[x] < b.Edges[x]
			}
		}
		return false
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func assertRanked(t *testing.T, ctxt string, want, got []Path) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d paths, want %d\ngot:  %v\nwant: %v", ctxt, len(got), len(want), got, want)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].Nodes, got[i].Nodes) || !reflect.DeepEqual(want[i].Edges, got[i].Edges) {
			t.Fatalf("%s: rank %d diverges\ngot:  %v %v\nwant: %v %v", ctxt, i,
				got[i], got[i].Edges, want[i], want[i].Edges)
		}
	}
}

// randomMultigraph builds a small random connected-ish multigraph with
// parallel edges and the occasional self-loop, plus a random power-of-two
// throughput assignment covering a random subset of edges.
func randomCostedMultigraph(t *testing.T, rng *rand.Rand) (*topology.Graph, map[int]float64) {
	t.Helper()
	g := topology.New()
	n := 4 + rng.Intn(4) // 4..7 nodes
	for i := 0; i < n; i++ {
		if err := g.AddNode(fmt.Sprintf("n%d", i), "T"); err != nil {
			t.Fatal(err)
		}
	}
	mbps := map[int]float64{}
	powers := []float64{1, 2, 4, 8, 16}
	edges := n + rng.Intn(2*n) // dense enough for path diversity
	for i := 0; i < edges; i++ {
		a := fmt.Sprintf("n%d", rng.Intn(n))
		b := fmt.Sprintf("n%d", rng.Intn(n)) // may equal a: self-loop
		id, err := g.AddEdge(a, b, "l")
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) != 0 { // 2/3 of edges carry a throughput attribute
			mbps[id] = powers[rng.Intn(len(powers))]
		}
	}
	return g, mbps
}

// TestKShortestProperty pins Yen's top-k against brute-force
// enumerate-then-rank on random small multigraphs, under both cost metrics
// and across k values straddling the total path count. Ties — rampant under
// CostHops, engineered under CostThroughput by the power-of-two throughput
// pool — must break identically (the documented deterministic order).
func TestKShortestProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(31*trial + 5)))
		g, mbps := randomCostedMultigraph(t, rng)
		c := Compile(g)
		c.SetEdgeCosts(throughputResolver(mbps))
		src, dst := "n0", fmt.Sprintf("n%d", g.NumNodes()-1)
		for _, metric := range []CostMetric{CostHops, CostThroughput} {
			for _, k := range []int{1, 2, 5, 1000} {
				want := bruteKShortest(t, c, g, src, dst, k, metric)
				got, stats, err := c.KShortest(src, dst, Options{K: k, CostMetric: metric})
				if err != nil {
					t.Fatalf("trial %d metric=%s k=%d: %v", trial, metric, k, err)
				}
				ctxt := fmt.Sprintf("trial %d metric=%s k=%d", trial, metric, k)
				assertRanked(t, ctxt, want, got)
				if stats.Paths != len(got) {
					t.Fatalf("%s: stats.Paths=%d, len=%d", ctxt, stats.Paths, len(got))
				}
				if stats.Truncated != (len(got) == k) {
					t.Fatalf("%s: Truncated=%v with %d/%d paths", ctxt, stats.Truncated, len(got), k)
				}
			}
		}
	}
}

// TestKShortestNoCostView pins the hop fallback: without SetEdgeCosts,
// CostThroughput ranks identically to CostHops.
func TestKShortestNoCostView(t *testing.T) {
	g, err := topology.Mesh(5)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	hops, _, err := c.KShortest("n0", "n4", Options{K: 7, CostMetric: CostHops})
	if err != nil {
		t.Fatal(err)
	}
	tp, _, err := c.KShortest("n0", "n4", Options{K: 7, CostMetric: CostThroughput})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hops, tp) {
		t.Fatalf("hop fallback diverges:\nhops: %v\ntp:   %v", hops, tp)
	}
}

// TestKShortestWorkBudget pins the structured budget error: the K·V·E
// estimate against Options.MaxWork, rejected before any search runs.
func TestKShortestWorkBudget(t *testing.T) {
	g, err := topology.Mesh(6)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	_, _, err = c.KShortest("n0", "n5", Options{K: 5, MaxWork: 10})
	le, ok := AsLimitError(err)
	if !ok {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.BudgetKind() != LimitKBest {
		t.Errorf("Kind = %q, want %q", le.BudgetKind(), LimitKBest)
	}
	if want := 5 * c.NumNodes() * c.NumEdges(); le.Need != want {
		t.Errorf("Need = %d, want %d", le.Need, want)
	}
	if le.Limit != 10 {
		t.Errorf("Limit = %d, want 10", le.Limit)
	}
	// A generous budget admits the same request.
	if _, _, err := c.KShortest("n0", "n5", Options{K: 5, MaxWork: 1 << 20}); err != nil {
		t.Errorf("generous budget rejected: %v", err)
	}
	// The enumeration hard-limit error keeps its kind (and its message).
	_, _, err = c.AllPaths("n0", "n5", Options{HardMaxPaths: 1})
	if le, ok := AsLimitError(err); !ok || le.BudgetKind() != LimitPaths {
		t.Errorf("hard limit error = %v, want kind %q", err, LimitPaths)
	}
}

// TestKShortestArgs covers validation and the degenerate inputs.
func TestKShortestArgs(t *testing.T) {
	g, err := topology.Ladder(3)
	if err != nil {
		t.Fatal(err)
	}
	// Disconnected pair: an island outside the ladder.
	if err := g.AddNode("island", "T"); err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	if _, _, err := c.KShortest("n0", "n5", Options{}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, _, err := c.KShortest("nope", "n5", Options{K: 1}); err == nil {
		t.Error("unknown requester accepted")
	}
	if _, _, err := c.KShortest("n0", "n0", Options{K: 1}); err == nil {
		t.Error("same endpoints accepted")
	}
	// Disconnected pair: empty ranking, no error.
	paths, stats, err := c.KShortest("n0", "island", Options{K: 3})
	if err != nil || len(paths) != 0 || stats.Truncated {
		t.Errorf("disconnected pair: paths=%v stats=%+v err=%v, want empty/untruncated/nil", paths, stats, err)
	}
}

// TestParseCostMetric pins the wire forms.
func TestParseCostMetric(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CostMetric
		ok   bool
	}{
		{"", CostHops, true},
		{"hops", CostHops, true},
		{"throughput", CostThroughput, true},
		{"latency", 0, false},
	} {
		got, err := ParseCostMetric(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseCostMetric(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if CostHops.String() != "hops" || CostThroughput.String() != "throughput" {
		t.Error("String round trip broken")
	}
}

// TestKShortestAllocs is the AllocsPerRun guard of the pooled ranked
// kernel: once the scratch pool is warm, a KShortest run performs only the
// allocations that escape into the returned paths — the exact-size result
// slice, its node names and its edge IDs — never per-expansion or per-spur
// work.
func TestKShortestAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g, err := topology.Mesh(7)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	opts := Options{K: 5, CostMetric: CostHops}
	for i := 0; i < 3; i++ { // warm the scratch pool and its k-state
		if _, _, err := c.KShortest("n0", "n6", opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := c.KShortest("n0", "n6", opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("KShortest allocates %.1f objects/op, want <= 3 (result slice, names, edge IDs)", allocs)
	}
}

// BenchmarkPathDiscKShortest measures ranked discovery on the mesh the
// enumeration benchmarks use (CI runs every PathDisc benchmark at 1x).
func BenchmarkPathDiscKShortest(b *testing.B) {
	c := Compile(benchGraph(b))
	opts := Options{K: 5, CostMetric: CostHops}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.KShortest("n0", "n7", opts); err != nil {
			b.Fatal(err)
		}
	}
}
