package casestudy

import (
	"math"
	"testing"

	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/pathdisc"
	"upsim/internal/topology"
	"upsim/internal/uml"
)

func TestBuildModel(t *testing.T) {
	m, err := BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("model invalid: %v", err)
	}
	// Figure 8: seven component classes.
	if got := len(m.Classes()); got != 7 {
		t.Errorf("classes = %d, want 7", got)
	}
	// Figure 9 inventory: 31 instances (12 clients, 3 printers, 6 servers,
	// 10 switches), 35 links.
	d, ok := m.Diagram(DiagramName)
	if !ok {
		t.Fatal("infrastructure diagram missing")
	}
	if d.NumInstances() != 31 {
		t.Errorf("instances = %d, want 31", d.NumInstances())
	}
	if d.NumLinks() != 31 {
		t.Errorf("links = %d, want 31", d.NumLinks())
	}
	if got := len(d.LinksBetween("c1", "c2")); got != 1 {
		t.Errorf("core links = %d, want 1", got)
	}
	// The print-server switch is dual-homed — the redundancy the published
	// paths exhibit.
	if len(d.LinksBetween("d4", "c1")) != 1 || len(d.LinksBetween("d4", "c2")) != 1 {
		t.Error("d4 must be dual-homed to both cores")
	}
	// The topology is connected.
	g := topology.FromObjectDiagram(d)
	if !connected(g) {
		t.Error("infrastructure must be connected")
	}
}

func TestFigure8Attributes(t *testing.T) {
	m, err := BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]float64{
		"Server":  {60000, 0.1},
		"C6500":   {61320, 0.5},
		"C3750":   {188575, 0.5},
		"C2960":   {183498, 0.5},
		"HP2650":  {199000, 0.5},
		"Comp":    {3000, 24.0},
		"Printer": {2880, 1.0},
	}
	for name, vals := range want {
		c := m.MustClass(name)
		mtbf, ok := c.Property("MTBF")
		if !ok || mtbf.AsReal() != vals[0] {
			t.Errorf("%s MTBF = %v, want %v", name, mtbf, vals[0])
		}
		mttr, ok := c.Property("MTTR")
		if !ok || mttr.AsReal() != vals[1] {
			t.Errorf("%s MTTR = %v, want %v", name, mttr, vals[1])
		}
		if red, ok := c.Property("redundantComponents"); !ok || red.AsReal() != 0 {
			t.Errorf("%s redundantComponents = %v", name, red)
		}
		if !stereotyped(c, "Component") || !stereotyped(c, "NetworkDevice") {
			t.Errorf("%s missing profile stereotypes", name)
		}
	}
	// Network profile attributes reachable through instances.
	d, _ := m.Diagram(DiagramName)
	c1, _ := d.Instance("c1")
	if v, ok := c1.Property("manufacturer"); !ok || v.AsString() != "Cisco" {
		t.Errorf("c1 manufacturer = %v, %v", v, ok)
	}
	t1, _ := d.Instance("t1")
	if v, ok := t1.Property("processor"); !ok || v.AsString() == "" {
		t.Errorf("t1 processor = %v, %v", v, ok)
	}
	// Links carry connector and communication attributes.
	ls := d.LinksBetween("t1", "e1")
	if len(ls) != 1 {
		t.Fatalf("t1-e1 links = %d", len(ls))
	}
	if v, ok := ls[0].Property("MTBF"); !ok || v.AsReal() != LinkMTBF {
		t.Errorf("link MTBF = %v, %v", v, ok)
	}
	if v, ok := ls[0].Property("channel"); !ok || v.AsString() != LinkChannel {
		t.Errorf("link channel = %v, %v", v, ok)
	}
}

func TestSectionVIGPaths(t *testing.T) {
	m, err := BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	d, _ := m.Diagram(DiagramName)
	g := topology.FromObjectDiagram(d)
	paths, _, err := pathdisc.Compile(g).AllPaths("t1", "printS", pathdisc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The published Section VI-G list is the exhaustive enumeration under
	// the reconstructed topology: exactly the two printed paths.
	if len(paths) != len(ExamplePathsT1PrintS) {
		t.Fatalf("t1→printS paths = %d, want %d: %v", len(paths), len(ExamplePathsT1PrintS), paths)
	}
	got := make(map[string]bool, len(paths))
	for _, p := range paths {
		got[p.String()] = true
	}
	for _, want := range ExamplePathsT1PrintS {
		if !got[want] {
			t.Errorf("published path %q not discovered; got %v", want, paths)
		}
	}
}

func TestFigure11UPSIM(t *testing.T) {
	m, err := BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := PrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(m, DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, TableIMapping(), "upsim-t1-p2", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.NodeNames()
	if len(got) != len(Figure11Nodes) {
		t.Fatalf("UPSIM nodes = %v, want %v", got, Figure11Nodes)
	}
	for i := range Figure11Nodes {
		if got[i] != Figure11Nodes[i] {
			t.Errorf("node[%d] = %s, want %s", i, got[i], Figure11Nodes[i])
		}
	}
	// Figure 12: only the mapping changes (Section VI-H).
	res2, err := gen.Generate(svc, T15P3Mapping(), "upsim-t15-p3", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got2 := res2.NodeNames()
	if len(got2) != len(Figure12Nodes) {
		t.Fatalf("Figure 12 UPSIM nodes = %v, want %v", got2, Figure12Nodes)
	}
	for i := range Figure12Nodes {
		if got2[i] != Figure12Nodes[i] {
			t.Errorf("node[%d] = %s, want %s", i, got2[i], Figure12Nodes[i])
		}
	}
	// UPSIM instances keep their properties (Section V-E).
	inst, ok := res.UPSIM.Instance("printS")
	if !ok {
		t.Fatal("printS missing")
	}
	if v, ok := inst.Property("MTBF"); !ok || v.AsReal() != 60000 {
		t.Errorf("printS MTBF = %v, %v", v, ok)
	}
}

func TestBackupServiceUPSIM(t *testing.T) {
	m, err := BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := BackupService(m)
	if err != nil {
		t.Fatal(err)
	}
	stages := svc.Stages()
	if len(stages) != 3 || len(stages[1]) != 2 {
		t.Fatalf("backup stages = %v", stages)
	}
	gen, err := core.NewGenerator(m, DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, BackupMapping(), "upsim-backup", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Backup touches t7's edge (e2, d1), the cores, both server switches'
	// side d3/d4 and the three servers.
	for _, must := range []string{"t7", "e2", "d1", "c1", "c2", "d3", "d4", "backup", "file1", "file2"} {
		if !res.Graph.HasNode(must) {
			t.Errorf("backup UPSIM missing %s (got %v)", must, res.NodeNames())
		}
	}
	for _, never := range []string{"p1", "p2", "p3", "printS", "email", "db", "t1"} {
		if res.Graph.HasNode(never) {
			t.Errorf("backup UPSIM must not contain %s", never)
		}
	}
}

func TestCaseStudyAvailability(t *testing.T) {
	m, err := BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := PrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.NewGenerator(m, DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, TableIMapping(), "u", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := depend.Analyze(res, depend.ModelExact, 200000, 42)
	if err != nil {
		t.Fatal(err)
	}
	// The dominating components are the client (A≈0.99206) and the printer
	// (A≈0.99965): the service availability must sit below their product
	// but above it minus the remaining (tiny) infrastructure contribution.
	clientA, _ := depend.Availability(3000, 24)
	printerA, _ := depend.Availability(2880, 1)
	upper := clientA * printerA
	if rep.Exact >= upper {
		t.Errorf("exact %v must be below client*printer %v", rep.Exact, upper)
	}
	if rep.Exact < upper-0.01 {
		t.Errorf("exact %v implausibly far below %v", rep.Exact, upper)
	}
	// Monte Carlo confirms.
	if math.Abs(rep.MonteCarlo-rep.Exact) > 5*rep.MCStdErr+1e-9 {
		t.Errorf("MC %v ± %v vs exact %v", rep.MonteCarlo, rep.MCStdErr, rep.Exact)
	}
	// Exact never exceeds the naive RBD.
	if rep.Exact > rep.RBDApprox+1e-12 {
		t.Errorf("exact %v above RBD %v", rep.Exact, rep.RBDApprox)
	}
}

func TestMappingsAreValid(t *testing.T) {
	for name, mp := range map[string]int{
		"TableI": TableIMapping().Len(),
		"T15P3":  T15P3Mapping().Len(),
		"Backup": BackupMapping().Len(),
	} {
		if mp == 0 {
			t.Errorf("%s mapping empty", name)
		}
	}
	// Table I has exactly five pairs with the published requesters and
	// providers.
	tm := TableIMapping()
	if tm.Len() != 5 {
		t.Fatalf("Table I pairs = %d", tm.Len())
	}
	p, _ := tm.Pair("Send documents")
	if p.Requester != "printS" || p.Provider != "p2" {
		t.Errorf("Send documents pair = %+v", p)
	}
	// The t15/p3 perspective only renames components.
	t15 := T15P3Mapping()
	p2, _ := t15.Pair("Request printing")
	if p2.Requester != "t15" || p2.Provider != "printS" {
		t.Errorf("t15 perspective pair = %+v", p2)
	}
}

// connected reports whether every node of g is reachable from its first.
func connected(g *topology.Graph) bool {
	names := g.NodeNames()
	if len(names) == 0 {
		return true
	}
	seen := map[string]bool{names[0]: true}
	for stack := names[:1:1]; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.IncidentEdges(n) {
			e, _ := g.Edge(id)
			if o := e.Other(n); !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return len(seen) == len(names)
}

// stereotyped reports whether c carries a stereotype that is name or
// specialises it.
func stereotyped(c *uml.Class, name string) bool {
	found := false
	c.EachApplication(func(app *uml.StereotypeApplication) {
		found = found || app.Stereotype().IsKindOf(name)
	})
	return found
}
