package depend

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestInterningGoldenOrdering pins the observable contract of the interned
// component universe: Compile must preserve the structure Components() ordering
// (sorted distinct IDs) exactly, including the synthetic link component IDs,
// so that bit order == name order and every downstream consumer (sensitivity
// aggregation, report tabulation) sees identical sequences from either
// kernel.
func TestInterningGoldenOrdering(t *testing.T) {
	st := &ServiceStructure{AtomicServices: []AtomicStructure{
		{Name: "fetch", PathSets: []PathSet{
			{"t1", LinkComponentID("sw", "t1", 0), "sw"},
			// Reversed endpoints: LinkComponentID must canonicalize.
			{"t1", LinkComponentID("t1", "c2", 4), "c2"},
		}},
		{Name: "deliver", PathSets: []PathSet{
			{"sw", LinkComponentID("sw", "c2", 11), "c2"},
		}},
	}}
	golden := []string{"c2", "c2--sw#11", "c2--t1#4", "sw", "sw--t1#0", "t1"}

	structure := st.Components()
	cs := Compile(st)
	compiled := cs.Components()
	if len(structure) != len(golden) || len(compiled) != len(golden) {
		t.Fatalf("structure %v, compiled %v, want %v", structure, compiled, golden)
	}
	for i := range golden {
		if structure[i] != golden[i] {
			t.Errorf("structure[%d] = %q, want %q", i, structure[i], golden[i])
		}
		if compiled[i] != golden[i] {
			t.Errorf("compiled[%d] = %q, want %q", i, compiled[i], golden[i])
		}
	}
	if cs.NumComponents() != len(golden) || cs.Words() != 1 {
		t.Errorf("NumComponents = %d, Words = %d; want %d and 1",
			cs.NumComponents(), cs.Words(), len(golden))
	}
}

// TestLinkComponentIDSurvivesInterning asserts the link ID scheme round-trips
// through the compiled kernel on a real generation result: every interned
// link component still parses to its edge index, and re-encoding the parsed
// pieces (endpoints deliberately reversed) reproduces the interned name
// byte-for-byte.
func TestLinkComponentIDSurvivesInterning(t *testing.T) {
	res := analysisFixture(t, 1e6)
	st, cs, _, err := FromResult(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	structure, compiled := st.Components(), cs.Components()
	if len(structure) != len(compiled) {
		t.Fatalf("structure %d components, compiled %d", len(structure), len(compiled))
	}
	nLinks := len(res.Source.Links())
	links := 0
	for i, comp := range compiled {
		if comp != structure[i] {
			t.Errorf("component[%d]: compiled %q != structure %q", i, comp, structure[i])
		}
		edgeID, isLink := parseLinkComponent(comp)
		if !isLink {
			continue
		}
		links++
		if edgeID < 0 || edgeID >= nLinks {
			t.Errorf("link %q: edge %d out of range [0,%d)", comp, edgeID, nLinks)
		}
		ends := strings.SplitN(strings.SplitN(comp, "#", 2)[0], "--", 2)
		if got := LinkComponentID(ends[1], ends[0], edgeID); got != comp {
			t.Errorf("round trip of %q = %q", comp, got)
		}
	}
	if links != 6 {
		t.Errorf("interned link components = %d, want 6", links)
	}
}

// TestConcurrentAnalysisSharedCompiled exercises one CompiledStructure (and
// the package's sync.Pool scratch arenas) from many goroutines at once, alongside
// concurrent AnalyzeContext pipelines over the same generation result. Run
// under -race this pins that the compiled kernel is safe for the server's
// concurrent request fan-out.
func TestConcurrentAnalysisSharedCompiled(t *testing.T) {
	res := analysisFixture(t, 1e6)
	st, cs, avail, err := FromResult(res, ModelExact)
	if err != nil {
		t.Fatal(err)
	}
	wantExact, err := oracleExact(st, avail)
	if err != nil {
		t.Fatal(err)
	}
	wantCuts, err := oracleMinimalCutSets(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := AnalyzeContext(context.Background(), res, ModelExact, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 20
	type estimate struct{ est, stderr float64 }
	var wantMC [workers][rounds]estimate
	for w := range wantMC {
		for i := range wantMC[w] {
			e := &wantMC[w][i]
			if e.est, e.stderr, err = cs.MonteCarlo(avail, 200, int64(w*100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := cs.Exact(avail)
				if err != nil || got != wantExact {
					t.Errorf("worker %d: Exact = %v, %v; want %v", w, got, err, wantExact)
					return
				}
				cuts, err := cs.MinimalCutSets(0)
				if err != nil || len(cuts) != len(wantCuts) {
					t.Errorf("worker %d: MinimalCutSets = %d sets, %v; want %d", w, len(cuts), err, len(wantCuts))
					return
				}
				est, stderr, err := cs.MonteCarlo(avail, 200, int64(w*100+i))
				if got := (estimate{est, stderr}); err != nil || got != wantMC[w][i] {
					t.Errorf("worker %d: MonteCarlo = %+v, %v; want %+v", w, got, err, wantMC[w][i])
					return
				}
				rep, err := AnalyzeContext(context.Background(), res, ModelExact, 500, 1)
				if err != nil || *rep != *wantRep {
					t.Errorf("worker %d: AnalyzeContext = %+v, %v; want %+v", w, rep, err, wantRep)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentPoolsAcrossStructures runs the exact, cut-set and importance
// analyses of structures with different component counts and bitset widths
// from many goroutines at once: the scratch pools are package-wide, so a
// context or arena grown for one structure is reused by the next, whatever
// its shape. Every result must equal the structure's sequential one.
func TestConcurrentPoolsAcrossStructures(t *testing.T) {
	type want struct {
		cs       *CompiledStructure
		avail    map[string]float64
		exact    float64
		cuts     int
		up, down []float64
	}
	rng := rand.New(rand.NewSource(7))
	var cases []want
	for len(cases) < 12 {
		s, avail := randomStructure(rng)
		if len(cases)%3 == 0 { // widen every third structure past one word
			for i := 0; i < 70; i++ {
				c := fmt.Sprintf("wide%02d", i)
				s.AtomicServices[0].PathSets[0] = append(s.AtomicServices[0].PathSets[0], c)
				avail[c] = 0.999
			}
		}
		cs := Compile(s)
		exact, err := cs.Exact(avail)
		if err != nil {
			t.Fatal(err)
		}
		cuts, err := cs.MinimalCutSets(0)
		if err != nil {
			t.Fatal(err)
		}
		up, down, err := cs.Importances(avail)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, want{cs, avail, exact, len(cuts), up, down})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				c := cases[(w+i)%len(cases)]
				if got, err := c.cs.Exact(c.avail); err != nil || got != c.exact {
					t.Errorf("worker %d: Exact = %v, %v; want %v", w, got, err, c.exact)
					return
				}
				if cuts, err := c.cs.MinimalCutSets(0); err != nil || len(cuts) != c.cuts {
					t.Errorf("worker %d: MinimalCutSets = %d sets, %v; want %d", w, len(cuts), err, c.cuts)
					return
				}
				up, down, err := c.cs.Importances(c.avail)
				if err != nil || !reflect.DeepEqual(up, c.up) || !reflect.DeepEqual(down, c.down) {
					t.Errorf("worker %d: Importances differ from the sequential run (err %v)", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
