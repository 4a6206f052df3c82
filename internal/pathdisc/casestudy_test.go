package pathdisc_test

import (
	"fmt"
	"slices"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

// TestCompiledMatchesOracleCaseStudy pins the CSR kernel to the map-based
// oracle on the USI network of Section VI: for every Table I
// requester/provider pair, unbounded and with MaxDepth 5, Compile(g).AllPaths
// returns exactly the oracle's paths, edges included, in the same order.
func TestCompiledMatchesOracleCaseStudy(t *testing.T) {
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := m.Diagram(casestudy.DiagramName)
	if !ok {
		t.Fatalf("diagram %q missing", casestudy.DiagramName)
	}
	g := topology.FromObjectDiagram(d)
	c := pathdisc.Compile(g)
	for _, p := range casestudy.TableIMapping().Pairs() {
		for _, opts := range []pathdisc.Options{{}, {MaxDepth: 5}} {
			label := fmt.Sprintf("%s %s→%s %+v", p.AtomicService, p.Requester, p.Provider, opts)
			want, _, err := pathdisc.OracleAllPaths(g, p.Requester, p.Provider, opts)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			got, _, err := c.AllPaths(p.Requester, p.Provider, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(want) == 0 {
				t.Fatalf("%s: oracle found no path", label)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d paths, oracle %d", label, len(got), len(want))
			}
			for k := range want {
				if got[k].String() != want[k].String() || !slices.Equal(got[k].Edges, want[k].Edges) {
					t.Fatalf("%s: path %d = %s %v, oracle %s %v", label, k, got[k], got[k].Edges, want[k], want[k].Edges)
				}
			}
		}
	}
}
