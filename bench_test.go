package upsim

// Benchmarks regenerating every table and figure of the paper plus the
// extended scalability and ablation studies (see DESIGN.md, "Experiment
// index"). Run with:
//
//	go test -bench=. -benchmem
//
// Naming follows the experiment IDs: F9 infrastructure, F11/F12 UPSIMs, P1
// the Section VI-G path discovery, E-AV the Section VII availability
// analysis, E-SCAL the Section V-D scalability study, E-DYN the Section
// V-A3 dynamicity study.

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"upsim/internal/pathdisc"
	"upsim/internal/topology"
)

// benchSeq disambiguates UPSIM names across benchmark re-invocations (the
// testing package calls each benchmark function several times with growing
// b.N against shared generators).
var benchSeq atomic.Int64

func benchName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, benchSeq.Add(1))
}

// mustBase builds the shared case-study fixtures.
func mustBase(b *testing.B) (*Model, *Composite, *Generator) {
	b.Helper()
	m, err := USIModel()
	if err != nil {
		b.Fatal(err)
	}
	svc, err := USIPrintingService(m)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(m, USIDiagramName)
	if err != nil {
		b.Fatal(err)
	}
	return m, svc, gen
}

// BenchmarkBuildInfrastructure regenerates Figures 5/8/9: profiles, classes
// and the full infrastructure object diagram.
func BenchmarkBuildInfrastructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := USIModel(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImportModel measures Step 5: the UML native import of the USI
// model into a fresh model space.
func BenchmarkImportModel(b *testing.B) {
	m, err := USIModel()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGenerator(m, USIDiagramName); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUPSIMT1P2 regenerates Figure 11 (Steps 6-8 for the Table I
// perspective).
func BenchmarkUPSIMT1P2(b *testing.B) {
	_, svc, gen := mustBase(b)
	mp := USITableIMapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(svc, mp, benchName("b11"), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUPSIMT15P3 regenerates Figure 12 (the mapping-only perspective
// change of Section VI-H).
func BenchmarkUPSIMT15P3(b *testing.B) {
	_, svc, gen := mustBase(b)
	mp := USIT15P3Mapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(svc, mp, benchName("b12"), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathDiscoveryCampus regenerates the Section VI-G enumeration
// (first Table I pair, t1 → printS).
func BenchmarkPathDiscoveryCampus(b *testing.B) {
	_, _, gen := mustBase(b)
	g := gen.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AllPaths(g, "t1", "printS", PathOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAvailability regenerates the Section VII analysis: UPSIM →
// structure function → exact availability (E-AV).
func BenchmarkAvailability(b *testing.B) {
	_, svc, gen := mustBase(b)
	res, err := gen.Generate(svc, USITableIMapping(), "bav", Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, avail, err := StructureOf(res, ModelExact)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Exact(avail); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo times the compiled Monte Carlo sampler the
// availability route runs, at the 20,000 samples of the benchmark's
// availability bodies: on the case study's own availabilities (every one
// near 1) and with every component at 0.9, where most draws fail.
func BenchmarkMonteCarlo(b *testing.B) {
	_, svc, gen := mustBase(b)
	res, err := gen.Generate(svc, USITableIMapping(), "bmc", Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, avail, err := StructureOf(res, ModelExact)
	if err != nil {
		b.Fatal(err)
	}
	cs := CompileStructure(st)
	low := make(map[string]float64, len(avail))
	for c := range avail {
		low[c] = 0.9
	}
	for _, bc := range []struct {
		name  string
		avail map[string]float64
	}{{"usi", avail}, {"avail0.9", low}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := cs.MonteCarlo(bc.avail, 20000, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemapOnly measures the E-DYN claim: deriving a new user
// perspective is one mapping clone + remap, not a model rebuild.
func BenchmarkRemapOnly(b *testing.B) {
	base := USITableIMapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp := base.Clone()
		if _, err := mp.RemapComponent("t1", "t15"); err != nil {
			b.Fatal(err)
		}
		if _, err := mp.RemapComponent("p2", "p3"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathDiscovery is the E-SCAL study (Section V-D): enumeration
// effort by topology family and size. Trees and campus networks stay flat;
// meshes exhibit the factorial blow-up the paper warns about.
func BenchmarkPathDiscovery(b *testing.B) {
	type tc struct {
		name     string
		g        *topology.Graph
		src, dst string
	}
	var cases []tc
	for _, depth := range []int{4, 6, 8} {
		g, err := topology.Tree(2, depth)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("tree/depth=%d", depth), g, "n0", fmt.Sprintf("n%d", g.NumNodes()-1)})
	}
	for _, edges := range []int{4, 8, 16} {
		g, err := topology.Campus(topology.CampusParams{
			EdgeSwitches: edges, ClientsPerEdge: 3, ServersPerSwitch: 3, RedundantCore: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("campus/edges=%d", edges), g, "t1", "srv1"})
	}
	for _, p := range []float64{0.02, 0.03, 0.04} {
		g, err := topology.RandomConnected(30, p, 1)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("random/loops=%.2f", p), g, "n0", "n29"})
	}
	for _, n := range []int{6, 7, 8} {
		g, err := topology.Mesh(n)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("mesh/n=%d", n), g, "n0", fmt.Sprintf("n%d", n-1)})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var paths int
			for i := 0; i < b.N; i++ {
				ps, _, err := pathdisc.AllPaths(c.g, c.src, c.dst, pathdisc.Options{})
				if err != nil {
					b.Fatal(err)
				}
				paths = len(ps)
			}
			b.ReportMetric(float64(paths), "paths")
		})
	}
}

// BenchmarkDFSVariants is the kernel ablation of the paper's recursive DFS
// on a dense graph: the map-based reference walker vs the compiled CSR
// kernel that Step 7 runs.
func BenchmarkDFSVariants(b *testing.B) {
	g, err := topology.Mesh(8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pathdisc.AllPaths(g, "n0", "n7", pathdisc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	c := pathdisc.Compile(g)
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := c.AllPaths("n0", "n7", pathdisc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMergeSemantics is the merge ablation: induced (the paper's
// filter) vs traversed-only link sets.
func BenchmarkMergeSemantics(b *testing.B) {
	_, svc, gen := mustBase(b)
	mp := USITableIMapping()
	b.Run("induced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.Generate(svc, mp, benchName("bi"), Options{Merge: MergeInduced}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traversed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.Generate(svc, mp, benchName("bt"), Options{Merge: MergeTraversed}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShortestAblation compares Definition 2 (all redundant paths)
// against the shortest-path-only ablation: one minimum-hop path per atomic
// service, ranked discovery with K = 1.
func BenchmarkShortestAblation(b *testing.B) {
	_, svc, gen := mustBase(b)
	mp := USITableIMapping()
	b.Run("all-paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.Generate(svc, mp, benchName("ba"), Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shortest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gen.Generate(svc, mp, benchName("bs"), Options{Paths: PathOptions{K: 1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkModelXML measures the serialisation round trip of the full USI
// model (the artefact exchange format of Steps 1-4).
func BenchmarkModelXML(b *testing.B) {
	m, err := USIModel()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := WriteModel(&out, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReadModel(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMappingXML measures the Figure 3 codec.
func BenchmarkMappingXML(b *testing.B) {
	mp := USITableIMapping()
	var buf bytes.Buffer
	if err := WriteMapping(&buf, mp); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := WriteMapping(&out, mp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReadMapping(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCutSets measures the minimal-cut-set transversal on the
// case-study structure (E-IMP).
func BenchmarkCutSets(b *testing.B) {
	_, svc, gen := mustBase(b)
	res, err := gen.Generate(svc, USITableIMapping(), "bcut", Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, _, err := StructureOf(res, ModelExact)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.MinimalCutSets(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivity measures the class-level sensitivity analysis
// (E-SENS: one Birnbaum evaluation per component).
func BenchmarkSensitivity(b *testing.B) {
	_, svc, gen := mustBase(b)
	res, err := gen.Generate(svc, USITableIMapping(), "bsens", Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeSensitivity(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQoS measures the performability + responsiveness analyses
// (E-QOS).
func BenchmarkQoS(b *testing.B) {
	_, svc, gen := mustBase(b)
	res, err := gen.Generate(svc, USITableIMapping(), "bqos", Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeThroughput(res); err != nil {
			b.Fatal(err)
		}
		if _, err := AnalyzeResponsiveness(res, ModelExact, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVTCL measures pattern parsing and matching against the imported
// case-study space.
func BenchmarkVTCL(b *testing.B) {
	src := `pattern printers(P, C) = {
		instanceOf(P, "metamodel.uml.InstanceSpecification");
		directed(P, "classifier", C);
		name(C, "Printer");
	}`
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ParsePatterns(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	_, _, gen := mustBase(b)
	pats, err := ParsePatterns(src)
	if err != nil {
		b.Fatal(err)
	}
	space, err := gen.Space()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms, err := pats[0].Match(space, nil)
			if err != nil || len(ms) != 3 {
				b.Fatalf("matches = %d, %v", len(ms), err)
			}
		}
	})
}

// BenchmarkCountPathsFatTree measures the streaming counter on a dense
// data-center topology (E-SCAL).
func BenchmarkCountPathsFatTree(b *testing.B) {
	g, err := topology.FatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := CountPaths(g, "h0-0-0", "h3-1-1", PathOptions{})
		if err != nil || n == 0 {
			b.Fatalf("count = %d, %v", n, err)
		}
	}
}
