package pathdisc

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"upsim/internal/testutil"
	"upsim/internal/topology"
)

// randomMultigraph builds a reproducible random graph exercising everything
// the kernel must survive: cycles, parallel edges, self-loops and
// disconnected islands. Node names are n0..n<n-1>.
func randomMultigraph(t testing.TB, seed int64, n int, extraEdges int) *topology.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topology.New()
	for i := 0; i < n; i++ {
		if err := g.AddNode(fmt.Sprintf("n%d", i), "N"); err != nil {
			t.Fatal(err)
		}
	}
	// A random spanning backbone over a prefix of the nodes (the suffix stays
	// disconnected with probability ~1/4 per node).
	for i := 1; i < n; i++ {
		if rng.Intn(4) == 0 && i > n/2 {
			continue
		}
		if _, err := g.AddEdge(fmt.Sprintf("n%d", rng.Intn(i)), fmt.Sprintf("n%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extraEdges; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(8) {
		case 0: // self-loop
			b = a
		case 1, 2: // parallel duplicate of an existing edge, when one exists
			if es := g.Edges(); len(es) > 0 {
				e := es[rng.Intn(len(es))]
				var err error
				if _, err = g.AddEdge(e.A, e.B, ""); err != nil {
					t.Fatal(err)
				}
				continue
			}
		}
		if _, err := g.AddEdge(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b), ""); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// optionsMatrix is every Options combination the equality property covers.
func optionsMatrix() []Options {
	return []Options{
		{},
		{MaxDepth: 1},
		{MaxDepth: 3},
		{MaxDepth: 6},
		{MaxPaths: 1},
		{MaxPaths: 7},
		{MaxDepth: 5, MaxPaths: 9},
		{MaxDepth: 4, MaxPaths: 5},
	}
}

// assertSameSequence fails unless both slices hold identical paths (nodes
// and edge IDs) in identical order.
func assertSameSequence(t *testing.T, label string, want, got []Path) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d paths, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].equalKey() != got[i].equalKey() {
			t.Fatalf("%s: path %d = %s (edges %v), want %s (edges %v)",
				label, i, got[i], got[i].Edges, want[i], want[i].Edges)
		}
	}
}

// TestCSRVariantsMatchLegacyProperty is the equality property of the
// compiled kernel: across randomized multigraphs (parallel edges, self-loops,
// disconnected islands) and the full Options matrix, the CSR DFS returns
// exactly the paths of the map-based walker of oracle_test.go, in the
// identical order.
func TestCSRVariantsMatchLegacyProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		n := 6 + int(seed)%9
		g := randomMultigraph(t, seed, n, n/2+int(seed)%5)
		c := Compile(g)
		src, dst := "n0", fmt.Sprintf("n%d", n-1)
		for _, opts := range optionsMatrix() {
			label := fmt.Sprintf("seed=%d n=%d opts=%+v", seed, n, opts)
			want, wantStats, err := oracleAllPaths(g, src, dst, opts)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			rec, recStats, err := c.AllPaths(src, dst, opts)
			if err != nil {
				t.Fatalf("%s: csr: %v", label, err)
			}
			assertSameSequence(t, label+" csr-dfs", want, rec)
			if recStats.Paths != len(rec) {
				t.Fatalf("%s: csr stats.Paths = %d, len = %d", label, recStats.Paths, len(rec))
			}
			// Pruning may only reduce effort, never change results.
			if recStats.EdgeVisits > wantStats.EdgeVisits {
				t.Fatalf("%s: csr EdgeVisits %d > oracle %d", label, recStats.EdgeVisits, wantStats.EdgeVisits)
			}
			if recStats.Truncated != wantStats.Truncated {
				t.Fatalf("%s: csr Truncated = %v, oracle = %v", label, recStats.Truncated, wantStats.Truncated)
			}
			if recStats.NodeVisits != recStats.EdgeVisits+1 {
				t.Fatalf("%s: csr NodeVisits = %d, EdgeVisits = %d", label, recStats.NodeVisits, recStats.EdgeVisits)
			}
		}
	}
}

// FuzzCSRAgreesWithLegacy drives the same equality property from fuzzed
// inputs: the graph shape, the endpoints and every Options field come from
// the fuzzer (the hard limit from the high part of maxPaths). It also holds
// the count-only search to the map-based count and to AllPaths: same count,
// same Truncated, same *LimitError. Run with
// `go test -fuzz=FuzzCSRAgreesWithLegacy` to explore; the seed corpus keeps
// it as a fast regression property under plain `go test`.
func FuzzCSRAgreesWithLegacy(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(4), uint8(0), uint8(0))
	f.Add(int64(7), uint8(12), uint8(9), uint8(4), uint8(3))
	f.Add(int64(42), uint8(5), uint8(7), uint8(2), uint8(1))
	f.Add(int64(99), uint8(14), uint8(2), uint8(0), uint8(5))
	f.Add(int64(5), uint8(10), uint8(9), uint8(0), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, maxDepth, maxPaths uint8) {
		n := 2 + int(nRaw)%13       // 2..14 nodes
		extra := int(extraRaw) % 12 // bounded density keeps enumeration small
		g := randomMultigraph(t, seed, n, extra)
		c := Compile(g)
		opts := Options{
			MaxDepth:     int(maxDepth) % 8,
			MaxPaths:     int(maxPaths) % 10,
			HardMaxPaths: int(maxPaths/10) % 12,
		}
		// A second enumeration with different Options on the same kernel
		// reuses the pooled scratch; it must not disturb the first result.
		opts2 := Options{
			MaxDepth:     (opts.MaxDepth + 3) % 8,
			MaxPaths:     (opts.MaxPaths + 4) % 10,
			HardMaxPaths: (opts.HardMaxPaths + 5) % 12,
		}
		src, dst := "n0", fmt.Sprintf("n%d", n-1)
		want, _, wantErr := oracleAllPaths(g, src, dst, opts)
		want2, _, wantErr2 := oracleAllPaths(g, src, dst, opts2)
		got, _, err := c.AllPaths(src, dst, opts)
		assertSameError(t, "csr-dfs", wantErr, err)
		assertSameSequence(t, "csr-dfs", want, got)
		got2, _, err := c.AllPaths(src, dst, opts2)
		assertSameError(t, "csr-dfs second run", wantErr2, err)
		assertSameSequence(t, "csr-dfs second run", want2, got2)
		assertSameSequence(t, "csr-dfs first run after second", want, got)

		for _, o := range []Options{opts, opts2} {
			label := fmt.Sprintf("count %+v", o)
			wantN, wantStats, wantErr := oracleCountPaths(g, src, dst, o)
			count, stats, err := c.CountPaths(src, dst, o)
			assertSameError(t, label, wantErr, err)
			if count != wantN || stats.Truncated != wantStats.Truncated || err == nil && stats.Paths != count {
				t.Fatalf("%s: count %d (Truncated %v, Paths %d), oracle %d (Truncated %v)",
					label, count, stats.Truncated, stats.Paths, wantN, wantStats.Truncated)
			}
			paths, _, err := c.AllPaths(src, dst, o)
			assertSameError(t, label+" vs AllPaths", err, wantErr)
			if count != len(paths) {
				t.Fatalf("%s: count %d, AllPaths %d paths", label, count, len(paths))
			}
		}
	})
}

// assertSameError fails unless both errors are nil, or both carry the same
// text and a *LimitError in one means a *LimitError in the other.
func assertSameError(t *testing.T, label string, want, got error) {
	t.Helper()
	if (want == nil) != (got == nil) || want != nil && want.Error() != got.Error() {
		t.Fatalf("%s: error %v, want %v", label, got, want)
	}
	_, wantLimit := AsLimitError(want)
	if _, gotLimit := AsLimitError(got); wantLimit != gotLimit {
		t.Fatalf("%s: error %v (*LimitError %v), want %v (*LimitError %v)", label, got, gotLimit, want, wantLimit)
	}
}

func TestCompileShape(t *testing.T) {
	g, err := topology.Mesh(6)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	if c.NumNodes() != 6 || c.NumEdges() != 15 {
		t.Fatalf("compiled shape = %d nodes, %d edges", c.NumNodes(), c.NumEdges())
	}
	if c.MaxDegree() != 5 {
		t.Errorf("MaxDegree = %d, want 5", c.MaxDegree())
	}
	if b := c.Branching(); b != 5 {
		t.Errorf("Branching = %v, want 5 (2E/N)", b)
	}
}

func TestCSRValidation(t *testing.T) {
	g, _ := ring(4)
	c := Compile(g)
	if _, _, err := c.AllPaths("ghost", "n1", Options{}); err == nil {
		t.Error("unknown requester should fail")
	}
	if _, _, err := c.AllPaths("n0", "ghost", Options{}); err == nil {
		t.Error("unknown provider should fail")
	}
	if _, _, err := c.AllPaths("n0", "n0", Options{}); err == nil {
		t.Error("identical endpoints should fail")
	}
}

func TestCSRDisconnectedPairSkipsSearch(t *testing.T) {
	g := topology.New()
	_ = g.AddNode("a", "")
	_ = g.AddNode("b", "")
	_ = g.AddNode("c", "")
	_, _ = g.AddEdge("a", "b", "")
	c := Compile(g)
	paths, stats, err := c.AllPaths("a", "c", Options{})
	if err != nil || len(paths) != 0 {
		t.Fatalf("disconnected pair: paths=%v err=%v", paths, err)
	}
	if stats.EdgeVisits != 0 {
		t.Errorf("reachability pruning should skip the whole search, EdgeVisits = %d", stats.EdgeVisits)
	}
}

// TestCSRPruningSkipsDeadEnds pins the tentpole's pruning claim. In an
// undirected connected graph every node can reach the provider, so the
// reverse-BFS distances prune through the depth budget: any expansion whose
// remaining distance to the provider exceeds the budget is cut before the
// search enters it, while the legacy DFS walks into the arm and only stops
// at the depth limit.
func TestCSRPruningSkipsDeadEnds(t *testing.T) {
	g := topology.New()
	// a—b—dst plus a 30-node chain dangling off b; with MaxDepth 2 nothing
	// down that chain can be part of a reportable path.
	for _, n := range []string{"a", "b", "dst"} {
		_ = g.AddNode(n, "")
	}
	_, _ = g.AddEdge("a", "b", "")
	_, _ = g.AddEdge("b", "dst", "")
	prev := "b"
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("dead%d", i)
		_ = g.AddNode(name, "")
		_, _ = g.AddEdge(prev, name, "")
		prev = name
	}
	opts := Options{MaxDepth: 2}
	_, legacyStats, err := oracleAllPaths(g, "a", "dst", opts)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	paths, csrStats, err := c.AllPaths("a", "dst", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	if legacyStats.EdgeVisits <= csrStats.EdgeVisits {
		t.Fatalf("legacy should enter the dead arm: legacy EdgeVisits = %d, csr = %d",
			legacyStats.EdgeVisits, csrStats.EdgeVisits)
	}
	if csrStats.EdgeVisits != 2 {
		t.Errorf("compiled kernel EdgeVisits = %d, want 2 (a→b, b→dst)", csrStats.EdgeVisits)
	}
	if csrStats.Pruned == 0 {
		t.Error("Stats.Pruned should count the skipped dead-arm expansion")
	}
	// Depth-budget pruning: with MaxDepth equal to the shortest detour-free
	// route, detours longer than the remaining budget are cut before being
	// walked.
	g2, err := ring(12)
	if err != nil {
		t.Fatal(err)
	}
	c2 := Compile(g2)
	_, tight, err := c2.AllPaths("n0", "n1", Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Pruned == 0 {
		t.Error("depth-budget pruning should skip the 11-hop detour")
	}
	if tight.EdgeVisits != 1 {
		t.Errorf("tight budget EdgeVisits = %d, want 1", tight.EdgeVisits)
	}
}

// TestCSRScratchReuse runs many enumerations through one kernel to verify
// pooled scratch stays clean between uses (a stale visited bit would drop
// paths; a stale path buffer would corrupt them).
func TestCSRScratchReuse(t *testing.T) {
	g, err := topology.Mesh(6)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	want, _, _ := oracleAllPaths(g, "n0", "n5", Options{})
	for i := 0; i < 50; i++ {
		got, _, err := c.AllPaths("n0", "n5", Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameSequence(t, fmt.Sprintf("round %d", i), want, got)
	}
	// Interleave different endpoint pairs and options.
	for i := 0; i < 20; i++ {
		if _, _, err := c.AllPaths("n1", "n4", Options{MaxDepth: 3}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.AllPaths("n2", "n3", Options{}); err != nil {
			t.Fatal(err)
		}
		got, _, err := c.AllPaths("n0", "n5", Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameSequence(t, fmt.Sprintf("interleaved %d", i), want, got)
	}
}

// TestEqualKeyAllocs is the AllocsPerRun guard for the strconv-based
// equalKey: one buffer plus its string conversion, nothing from fmt.
func TestEqualKeyAllocs(t *testing.T) {
	p := Path{
		Nodes: []string{"t1", "e1", "d1", "c1", "d4", "printS"},
		Edges: []int{0, 11, 222, 3333, 44444},
	}
	allocs := testing.AllocsPerRun(200, func() {
		if p.equalKey() == "" {
			t.Fatal("empty key")
		}
	})
	if allocs > 2 {
		t.Errorf("equalKey allocates %.1f objects/op, want <= 2 (buffer + string)", allocs)
	}
	if got, want := p.equalKey(), "t1|0|e1|11|d1|222|c1|3333|d4|44444|printS"; got != want {
		t.Errorf("equalKey = %q, want %q", got, want)
	}
}

// clonePaths deep-copies paths, so later mutation of the originals' backing
// arrays shows up as a difference.
func clonePaths(ps []Path) []Path {
	out := make([]Path, len(ps))
	for i, p := range ps {
		out[i] = Path{
			Nodes: append([]string(nil), p.Nodes...),
			Edges: append([]int(nil), p.Edges...),
		}
	}
	return out
}

// TestReturnedPathsDoNotAlias pins the ownership contract of both compiled
// kernels: returned paths share one backing array per field but never
// overlap — appending to one path cannot clobber its neighbour — and they
// never alias the pooled scratch, so a later search (including one that
// aborts on the hard limit) leaves an earlier result intact.
func TestReturnedPathsDoNotAlias(t *testing.T) {
	g, err := topology.Mesh(6)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	kernels := []struct {
		name string
		run  func(src, dst string) ([]Path, error)
		want func(src, dst string) []Path
	}{
		{"AllPaths",
			func(src, dst string) ([]Path, error) {
				ps, _, err := c.AllPaths(src, dst, Options{})
				return ps, err
			},
			func(src, dst string) []Path {
				ps, _, err := oracleAllPaths(g, src, dst, Options{})
				if err != nil {
					t.Fatal(err)
				}
				return ps
			}},
		{"KShortest",
			func(src, dst string) ([]Path, error) {
				ps, _, err := c.KShortest(src, dst, Options{K: 8})
				return ps, err
			},
			func(src, dst string) []Path {
				return bruteKShortest(t, c, g, src, dst, 8, CostHops)
			}},
	}
	for _, k := range kernels {
		first, err := k.run("n0", "n5")
		if err != nil {
			t.Fatal(err)
		}
		if len(first) < 2 {
			t.Fatalf("%s: %d paths, the test needs at least 2", k.name, len(first))
		}
		snapshot := clonePaths(first)

		// Appending to one path must reallocate, not write into the next.
		for i := 0; i+1 < len(first); i++ {
			_ = append(first[i].Nodes, "clobber")
			_ = append(first[i].Edges, -1)
		}
		assertSameSequence(t, k.name+" after append", snapshot, first)

		// A second search on the same kernel reuses the pooled scratch.
		if _, err := k.run("n1", "n4"); err != nil {
			t.Fatal(err)
		}
		assertSameSequence(t, k.name+" after a second search", snapshot, first)

		// A hard-limit abort leaves the scratch reusable.
		_, _, err = c.AllPaths("n0", "n5", Options{HardMaxPaths: 3})
		var le *LimitError
		if !errors.As(err, &le) {
			t.Fatalf("%s: HardMaxPaths 3 on mesh 6: err = %v, want *LimitError", k.name, err)
		}
		assertSameSequence(t, k.name+" after an overflow", snapshot, first)
		got, err := k.run("n0", "n5")
		if err != nil {
			t.Fatal(err)
		}
		assertSameSequence(t, k.name+" run after an overflow", k.want("n0", "n5"), got)
	}
}

// TestAllPathsAllocs is the allocation guard of the enumeration kernel: on a
// warm pool, AllPaths allocates only the three arrays of its exact-size
// result (the []Path, the node names, the edge IDs) whatever the path count,
// so a small enumeration costs bytes in proportion to what it finds.
func TestAllPathsAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, tc := range []struct {
		n, paths  int
		maxAllocs float64
		maxBytes  uint64
	}{
		{n: 4, paths: 5, maxAllocs: 3, maxBytes: 1 << 10},
		{n: 8, paths: 1957, maxAllocs: 3},
	} {
		g, err := topology.Mesh(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		c := Compile(g)
		dst := fmt.Sprintf("n%d", tc.n-1)
		run := func() {
			ps, _, err := c.AllPaths("n0", dst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ps) != tc.paths {
				t.Fatalf("mesh %d: %d paths, want %d", tc.n, len(ps), tc.paths)
			}
		}
		run() // warm the scratch pool
		allocs := testing.AllocsPerRun(20, run)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const runs = 20
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		perRun := (m1.TotalAlloc - m0.TotalAlloc) / runs
		t.Logf("mesh %d (%d paths): %.0f allocs, %d B per enumeration", tc.n, tc.paths, allocs, perRun)
		if allocs > tc.maxAllocs {
			t.Errorf("mesh %d: AllPaths allocates %.1f objects/op, want <= %.0f", tc.n, allocs, tc.maxAllocs)
		}
		if tc.maxBytes > 0 && perRun > tc.maxBytes {
			t.Errorf("mesh %d: AllPaths allocates %d B/op, want <= %d", tc.n, perRun, tc.maxBytes)
		}
	}
}

// --- Benchmarks (the CI smoke job runs every benchmark with -benchtime=1x) ---

func benchGraph(b *testing.B) *topology.Graph {
	g, err := topology.Mesh(8)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkPathDiscLegacyMesh8 times the map-based walker of oracle_test.go
// on the fixture of BenchmarkPathDiscCSRMesh8, so that the kernel's speedup
// stays reproducible with `go test -bench 'PathDisc.*Mesh8'`.
func BenchmarkPathDiscLegacyMesh8(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := oracleAllPaths(g, "n0", "n7", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathDiscCSRMesh8(b *testing.B) {
	c := Compile(benchGraph(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.AllPaths("n0", "n7", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathDiscCompile(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(g)
	}
}

func BenchmarkPathDiscEqualKey(b *testing.B) {
	p := Path{
		Nodes: []string{"t1", "e1", "d1", "c1", "d4", "printS"},
		Edges: []int{0, 11, 222, 3333, 44444},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.equalKey() == "" {
			b.Fatal("empty")
		}
	}
}
