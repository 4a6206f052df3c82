package modelgen

import (
	"fmt"

	"upsim/internal/mapping"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

// CloudScenario bundles a generated infrastructure model with a ready-made
// service, mapping and discovery options, so a test can run the full
// Step 1–8 pipeline on a synthetic topology.
type CloudScenario struct {
	Model   *uml.Model
	Diagram string
	// Service is the name of the composite-service activity added to Model.
	Service string
	Mapping *mapping.Mapping
	// Paths bounds discovery to valley-free up–down routes; unbounded
	// enumeration on a fat-tree would also return the detour paths.
	Paths pathdisc.Options
}

// FatTreeScenarioService is the composite service FatTreeScenario installs.
const FatTreeScenarioService = "scatter"

// FatTreeScenario builds a k-ary fat-tree cloud model carrying a cross-pod
// scatter workload: the first host of pod 0 performs one atomic write to the
// first host of every other pod, sequentially. The union of up–down routes
// then spans every pod's aggregation layer and the whole core, so the
// compiled dependency kernel grows with k³: for k = 8 it exceeds 128 distinct
// components (more than two 64-bit bitset words), beyond the small
// hand-made corpora.
func FatTreeScenario(k int) (*CloudScenario, error) {
	g, err := topology.FatTree(k)
	if err != nil {
		return nil, err
	}
	m, err := Build(fmt.Sprintf("fat-tree-k%d", k), g, Params{
		Classes: map[string]ClassParams{
			"Host": {MTBF: 20000, MTTR: 4},
		},
	})
	if err != nil {
		return nil, err
	}
	mp := mapping.New()
	atomics := make([]string, 0, k-1)
	for p := 1; p < k; p++ {
		name := fmt.Sprintf("write-pod%d", p)
		atomics = append(atomics, name)
		if err := mp.Add(mapping.Pair{
			AtomicService: name,
			Requester:     "h0-0-0",
			Provider:      fmt.Sprintf("h%d-0-0", p),
		}); err != nil {
			return nil, err
		}
	}
	if _, err := service.NewSequential(m, FatTreeScenarioService, atomics...); err != nil {
		return nil, err
	}
	return &CloudScenario{
		Model:   m,
		Diagram: "infrastructure",
		Service: FatTreeScenarioService,
		Mapping: mp,
		// host-edge-agg-core-agg-edge-host is 6 hops.
		Paths: pathdisc.Options{MaxDepth: 6},
	}, nil
}
