package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"upsim"
	"upsim/internal/server"
	"upsim/internal/uml"
)

// withArtifacts writes the built-in case-study artifacts into a temp dir and
// returns their paths.
func withArtifacts(t *testing.T) (modelPath, mappingPath string) {
	t.Helper()
	dir := t.TempDir()
	modelPath = filepath.Join(dir, "usi.xml")
	mappingPath = filepath.Join(dir, "t1.xml")
	if err := run([]string{"casestudy", "-model", modelPath, "-mapping", mappingPath}); err != nil {
		t.Fatal(err)
	}
	return modelPath, mappingPath
}

// capture redirects stdout while fn runs and returns what was printed. A
// background reader drains the pipe so large outputs cannot deadlock the
// writer.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestCLICaseStudyAndInventory(t *testing.T) {
	modelPath, mappingPath := withArtifacts(t)
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	if _, err := os.Stat(mappingPath); err != nil {
		t.Fatalf("mapping not written: %v", err)
	}
	out, err := capture(t, func() error {
		return run([]string{"inventory", "-model", modelPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`model "usi"`, "classes: 7", "printing", "backup"} {
		if !strings.Contains(out, want) {
			t.Errorf("inventory missing %q", want)
		}
	}
}

func TestCLIPaths(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	out, err := capture(t, func() error {
		return run([]string{"paths", "-model", modelPath, "-diagram", "infrastructure",
			"-from", "t1", "-to", "printS"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "t1—e1—d1—c1—d4—printS") || !strings.Contains(out, "# 2 paths") {
		t.Errorf("paths output:\n%s", out)
	}
}

// TestCLIPathsMatchesServer pins the CLI to the server's discovery kernel:
// a bounded enumeration reports the same search effort as GET /api/v1/paths
// on the same case-study model.
func TestCLIPathsMatchesServer(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	out, err := capture(t, func() error {
		return run([]string{"paths", "-model", modelPath, "-diagram", "infrastructure",
			"-from", "t1", "-to", "printS", "-maxdepth", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	server.New().ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/paths?from=t1&to=printS&maxDepth=5", nil))
	var resp struct {
		PathCount, NodesVisited, EdgeVisits, MaxStack, Pruned int
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("server reply %d %s: %v", w.Code, w.Body, err)
	}
	want := fmt.Sprintf("# %d paths, %d nodes visited, %d edge visits, max stack %d, pruned %d\n",
		resp.PathCount, resp.NodesVisited, resp.EdgeVisits, resp.MaxStack, resp.Pruned)
	if !strings.Contains(out, want) {
		t.Errorf("CLI stats differ from the server's %q:\n%s", want, out)
	}
}

func TestCLIPathsRejectsNegativeBounds(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	for _, flag := range []string{"-k", "-maxdepth", "-maxpaths"} {
		_, err := capture(t, func() error {
			return run([]string{"paths", "-model", modelPath, "-diagram", "infrastructure",
				"-from", "t1", "-to", "printS", flag, "-1"})
		})
		if err == nil || !strings.Contains(err.Error(), flag+" must be >= 0") {
			t.Errorf("%s -1: err = %v", flag, err)
		}
	}
}

func TestCLIPathsRanked(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	out, err := capture(t, func() error {
		return run([]string{"paths", "-model", modelPath, "-diagram", "infrastructure",
			"-from", "t1", "-to", "printS", "-k", "1", "-cost", "throughput"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// k=1 returns just the cheapest path, with its cost leading the line.
	if !strings.Contains(out, "# 1 paths by throughput cost") {
		t.Errorf("ranked paths output:\n%s", out)
	}
	if !strings.Contains(out, "t1—") || !strings.Contains(out, "—printS") {
		t.Errorf("ranked paths output lacks a path line:\n%s", out)
	}
	// An unknown metric is rejected.
	if _, err := capture(t, func() error {
		return run([]string{"paths", "-model", modelPath, "-diagram", "infrastructure",
			"-from", "t1", "-to", "printS", "-k", "1", "-cost", "latency"})
	}); err == nil {
		t.Error("unknown -cost accepted")
	}
}

func TestCLIGenerateAndAvail(t *testing.T) {
	modelPath, mappingPath := withArtifacts(t)
	dir := t.TempDir()
	dotOut := filepath.Join(dir, "u.dot")
	modelOut := filepath.Join(dir, "out.xml")
	out, err := capture(t, func() error {
		return run([]string{"generate", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath, "-name", "fig11",
			"-dot", dotOut, "-out", modelOut})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "10 components") {
		t.Errorf("generate output:\n%s", out)
	}
	if _, err := os.Stat(dotOut); err != nil {
		t.Error("DOT not written")
	}
	// -out writes the model with the UPSIM recorded in it.
	f, err := os.Open(modelOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	written, err := uml.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := written.Diagram("fig11"); !ok || d.NumInstances() != 10 {
		t.Errorf("-out model lacks the 10-instance fig11 diagram (found %t)", ok)
	}
	out, err = capture(t, func() error {
		return run([]string{"avail", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath, "-mc", "5000"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "exact:") || !strings.Contains(out, "downtime:") {
		t.Errorf("avail output:\n%s", out)
	}
}

// TestCLIAvailMatchesServer pins `upsim avail` to POST /api/v1/availability:
// the same inputs, sample count and seed print the server's exact, RBD,
// fault-tree and Monte Carlo figures at the CLI's precision.
func TestCLIAvailMatchesServer(t *testing.T) {
	modelPath, mappingPath := withArtifacts(t)
	out, err := capture(t, func() error {
		return run([]string{"avail", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath, "-mc", "20000", "-seed", "7"})
	})
	if err != nil {
		t.Fatal(err)
	}
	modelXML, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	mappingXML, err := os.ReadFile(mappingPath)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"modelXml": string(modelXML), "diagram": "infrastructure", "service": "printing",
		"mappingXml": string(mappingXML), "mcSamples": 20000, "seed": 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	server.New().ServeHTTP(w, httptest.NewRequest("POST", "/api/v1/availability", bytes.NewReader(body)))
	var resp struct {
		Exact, RBDApprox, FTApprox, MonteCarlo, MCStdErr, DowntimePerYearHours float64
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("server reply %d %s: %v", w.Code, w.Body, err)
	}
	for _, want := range []string{
		fmt.Sprintf("exact:        %.10f\n", resp.Exact),
		fmt.Sprintf("naive RBD:    %.10f\n", resp.RBDApprox),
		fmt.Sprintf("fault tree:   %.10f\n", resp.FTApprox),
		fmt.Sprintf("Monte Carlo:  %.6f ± %.6f (20000 samples)\n", resp.MonteCarlo, resp.MCStdErr),
		fmt.Sprintf("downtime:     %.1f hours/year\n", resp.DowntimePerYearHours),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CLI output lacks the server's %q:\n%s", want, out)
		}
	}
}

// TestCLIWhatIf checks `upsim whatif -casestudy -fail p2 -json` against the
// what-if engine run in-process on the same generation: the failure impact
// and the critical-component ranking must be equal.
func TestCLIWhatIf(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"whatif", "-casestudy", "-fail", "p2", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Impact   *upsim.WhatIfImpact       `json:"impact"`
		Critical []upsim.CriticalComponent `json:"critical"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("whatif -json does not parse: %v\n%s", err, out)
	}

	m, err := upsim.USIModel()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := upsim.USIPrintingService(m)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := upsim.NewGenerator(m, upsim.USIDiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, upsim.USITableIMapping(), "printing", upsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := upsim.NewWhatIfEngine(gen.Graph(), nil)
	if err := eng.Register("printing", "", res, upsim.ModelExact); err != nil {
		t.Fatal(err)
	}
	impact, err := eng.Impact(upsim.WhatIfFailure{Components: []string{"p2"}})
	if err != nil {
		t.Fatal(err)
	}
	crit, err := eng.Critical(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Impact, impact) {
		t.Errorf("impact: CLI %+v, engine %+v", got.Impact, impact)
	}
	if !reflect.DeepEqual(got.Critical, crit) {
		t.Errorf("critical ranking: CLI %+v, engine %+v", got.Critical, crit)
	}
	if len(crit) == 0 || len(impact.Services) != 1 || !impact.Services[0].Affected {
		t.Errorf("degenerate what-if fixture: impact %+v, %d critical", impact, len(crit))
	}
}

func TestCLIDotKinds(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"dot", "-model", modelPath, "-diagram", "infrastructure"}, `graph "infrastructure"`},
		{[]string{"dot", "-model", modelPath, "-kind", "classes"}, "shape=record"},
		{[]string{"dot", "-model", modelPath, "-kind", "activity", "-activity", "printing"}, `digraph "printing"`},
	}
	for _, c := range cases {
		out, err := capture(t, func() error { return run(c.args) })
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%v missing %q", c.args, c.want)
		}
	}
}

func TestCLIQueryAndRBD(t *testing.T) {
	modelPath, mappingPath := withArtifacts(t)
	patterns := filepath.Join(t.TempDir(), "q.vtcl")
	src := `pattern printers(P, C) = {
		instanceOf(P, "metamodel.uml.InstanceSpecification");
		directed(P, "classifier", C);
		name(C, "Printer");
	}`
	if err := os.WriteFile(patterns, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"query", "-model", modelPath, "-diagram", "infrastructure",
			"-patterns", patterns})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 matches") {
		t.Errorf("query output:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"rbd", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[parallel]") || !strings.Contains(out, "RBD availability") {
		t.Errorf("rbd output:\n%s", out)
	}
}

// TestCLITrace checks the -trace flag: each pipeline stage (Steps 5–8, and
// the analysis stages for avail) shows up as a span in the printed tree.
func TestCLITrace(t *testing.T) {
	modelPath, mappingPath := withArtifacts(t)

	out, err := capture(t, func() error {
		return run([]string{"generate", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath, "-name", "traced", "-trace"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{
		"upsim.generate", "step5.import_uml", "step6.import_mapping",
		"step7.pathdisc", "step8.merge",
	} {
		if !strings.Contains(out, span) {
			t.Errorf("generate -trace missing span %q:\n%s", span, out)
		}
	}
	if !strings.Contains(out, "t1->printS: 2 paths") || !strings.Contains(out, "nodes visited") {
		t.Errorf("generate missing per-service stats:\n%s", out)
	}

	out, err = capture(t, func() error {
		return run([]string{"paths", "-model", modelPath, "-diagram", "infrastructure",
			"-from", "t1", "-to", "printS", "-trace"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"upsim.paths", "step5.import_uml", "step7.pathdisc"} {
		if !strings.Contains(out, span) {
			t.Errorf("paths -trace missing span %q:\n%s", span, out)
		}
	}
	if !strings.Contains(out, "# 2 paths, 51 nodes visited, 50 edge visits") {
		t.Errorf("paths stats line:\n%s", out)
	}

	out, err = capture(t, func() error {
		return run([]string{"avail", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath, "-mc", "5000", "-trace"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"upsim.avail", "avail.analyze", "avail.exact", "avail.montecarlo"} {
		if !strings.Contains(out, span) {
			t.Errorf("avail -trace missing span %q:\n%s", span, out)
		}
	}

	// Without -trace no tree is printed.
	out, err = capture(t, func() error {
		return run([]string{"paths", "-model", modelPath, "-diagram", "infrastructure",
			"-from", "t1", "-to", "printS"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "step5.import_uml") {
		t.Errorf("trace printed without -trace:\n%s", out)
	}
}

func TestCLIExplain(t *testing.T) {
	modelPath, mappingPath := withArtifacts(t)

	out, err := capture(t, func() error {
		return run([]string{"explain", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath, "-top", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"compiled kernel",
		"paths: 10 total (0 direct, 10 transitive), length 5..6, mean 5.50",
		`service "Request printing"  t1 -> printS`,
		"depth histogram: 5:1 6:1",
		"t1—e1—d1—c1—d4—printS",
		"discovery tree:",
		"t1:Comp  paths=2",
		"terminal=1",
		"top 3 of 20 minimal cut sets",
		"top 3 of 20 components by Birnbaum importance",
		"class sensitivities",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}

	// -casestudy needs no files; -json emits the machine-readable report.
	jsonOut, err := capture(t, func() error {
		return run([]string{"explain", "-casestudy", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep upsim.ExplainReport
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("explain -json does not parse: %v", err)
	}
	if rep.Stats.Count != 10 || rep.Attribution == nil || len(rep.Services) != 5 {
		t.Errorf("explain -json report incomplete: stats=%+v services=%d", rep.Stats, len(rep.Services))
	}

	// -trace surfaces the explain spans alongside the pipeline spans, and
	// the depth statistics printed above come from the same Statistics the
	// server responses embed.
	out, err = capture(t, func() error {
		return run([]string{"explain", "-casestudy", "-trace"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{
		"upsim.explain", "step7.pathdisc", "explain.report", "explain.paths", "explain.attribution",
	} {
		if !strings.Contains(out, span) {
			t.Errorf("explain -trace missing span %q:\n%s", span, out)
		}
	}
	if !strings.Contains(out, "depth=5..6 mean=5.50") {
		t.Errorf("explain -trace missing depth stats:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	cases := [][]string{
		{},
		{"bogus"},
		{"inventory"},
		{"paths", "-model", modelPath},
		{"paths", "-model", modelPath, "-diagram", "infrastructure", "-from", "ghost", "-to", "printS"},
		{"dot"},
		{"dot", "-model", modelPath, "-kind", "nonsense"},
		{"dot", "-model", modelPath, "-kind", "activity"},
		{"dot", "-model", modelPath, "-kind", "object", "-diagram", "ghost"},
		{"query", "-model", modelPath},
		{"query", "-model", modelPath, "-diagram", "infrastructure", "-patterns", "/nonexistent.vtcl"},
		{"inventory", "-model", "/nonexistent.xml"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	// Help succeeds.
	if _, err := capture(t, func() error { return run([]string{"help"}) }); err != nil {
		t.Errorf("help failed: %v", err)
	}
}

// TestCLIServiceInputErrors pins the exact error text of the subcommands
// that load a model, a service activity and a mapping: missing flags, an
// unreadable model, an unknown activity (checked before the mapping is
// opened) and an unreadable mapping.
func TestCLIServiceInputErrors(t *testing.T) {
	modelPath, mappingPath := withArtifacts(t)
	missing := filepath.Join(t.TempDir(), "missing.xml")
	noFile := "open " + missing + ": no such file or directory"
	for _, tc := range []struct {
		cmd, required string
	}{
		{"generate", "generate: -model, -diagram, -service and -mapping are required"},
		{"avail", "avail: -model, -diagram, -service and -mapping are required"},
		{"explain", "explain: -model, -diagram, -service and -mapping are required (or use -casestudy)"},
		{"rbd", "rbd: -model, -diagram, -service and -mapping are required"},
		{"whatif", "whatif: -model, -diagram, -service and -mapping are required (or use -casestudy)"},
	} {
		full := func(model, service, mapping string) []string {
			return []string{tc.cmd, "-model", model, "-diagram", "infrastructure",
				"-service", service, "-mapping", mapping}
		}
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{tc.cmd}, tc.required},
			{[]string{tc.cmd, "-model", modelPath}, tc.required},
			{[]string{tc.cmd, "-model", modelPath, "-diagram", "infrastructure", "-service", "printing"}, tc.required},
			{full(missing, "printing", mappingPath), noFile},
			{full(modelPath, "ghost", missing), tc.cmd + `: model has no activity "ghost"`},
			{full(modelPath, "printing", missing), noFile},
		} {
			_, err := capture(t, func() error { return run(c.args) })
			if err == nil || err.Error() != c.want {
				t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
			}
		}
	}
}

func TestCLIQueryNamedPattern(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	patterns := filepath.Join(t.TempDir(), "multi.vtcl")
	src := `pattern first(A) = { name(A, "t1"); below(A, "models.usi.diagrams.infrastructure"); }
pattern second(B) = { name(B, "p2"); below(B, "models.usi.diagrams.infrastructure"); }`
	if err := os.WriteFile(patterns, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"query", "-model", modelPath, "-diagram", "infrastructure",
			"-patterns", patterns, "-name", "second"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "p2") || !strings.Contains(out, `pattern "second"`) {
		t.Errorf("named query output:\n%s", out)
	}
	if _, err := capture(t, func() error {
		return run([]string{"query", "-model", modelPath, "-diagram", "infrastructure",
			"-patterns", patterns, "-name", "ghost"})
	}); err == nil {
		t.Error("unknown pattern name should fail")
	}
}

func TestCLIProject(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run([]string{"project", "-dir", dir, "-init"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "initialised") || !strings.Contains(out, "t1-p2") {
		t.Errorf("project init output:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"project", "-dir", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `model "usi"`) || !strings.Contains(out, "backup-t7") {
		t.Errorf("project info output:\n%s", out)
	}
	// Double init fails; loading a non-workspace fails.
	if _, err := capture(t, func() error { return run([]string{"project", "-dir", dir, "-init"}) }); err == nil {
		t.Error("double init should fail")
	}
	if _, err := capture(t, func() error { return run([]string{"project", "-dir", t.TempDir()}) }); err == nil {
		t.Error("empty dir should fail")
	}
}

func TestCLILintCaseStudy(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"lint", "-casestudy"})
	})
	if err != nil {
		t.Fatalf("pristine case study must lint clean: %v", err)
	}
	if !strings.Contains(out, "0 errors") {
		t.Errorf("lint output:\n%s", out)
	}
}

func TestCLILintFilesAndJSON(t *testing.T) {
	modelPath, mappingPath := withArtifacts(t)
	out, err := capture(t, func() error {
		return run([]string{"lint", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath})
	})
	if err != nil {
		t.Fatalf("lint on exported artifacts: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 errors, 0 warnings") {
		t.Errorf("lint output:\n%s", out)
	}

	out, err = capture(t, func() error {
		return run([]string{"lint", "-json", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", mappingPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := upsim.DecodeLintReport(strings.NewReader(out))
	if err != nil {
		t.Fatalf("JSON report does not decode: %v\n%s", err, out)
	}
	if rep.Errors != 0 || len(rep.Diagnostics) != 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.RulesRun < 10 {
		t.Errorf("rulesRun = %d, want >= 10", rep.RulesRun)
	}
}

func TestCLILintBrokenMappingExitsNonZero(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	badMapping := filepath.Join(t.TempDir(), "bad.xml")
	const xml = `<servicemapping>
  <atomicservice id="Request printing"><requester id="ghost"/><provider id="p2"/></atomicservice>
</servicemapping>`
	if err := os.WriteFile(badMapping, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"lint", "-model", modelPath, "-diagram", "infrastructure",
			"-service", "printing", "-mapping", badMapping})
	})
	if err == nil {
		t.Fatal("lint accepted a mapping with a dangling requester")
	}
	if !strings.Contains(err.Error(), "error") {
		t.Errorf("exit error = %v", err)
	}
	for _, want := range []string{"mapping-dangling-ref", "ghost", "mapping-missing-pair"} {
		if !strings.Contains(out, want) {
			t.Errorf("lint report missing %q:\n%s", want, out)
		}
	}
}

func TestCLILintModelOnly(t *testing.T) {
	modelPath, _ := withArtifacts(t)
	out, err := capture(t, func() error {
		return run([]string{"lint", "-model", modelPath, "-diagram", "infrastructure"})
	})
	if err != nil {
		t.Fatalf("model-only lint: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 errors") {
		t.Errorf("lint output:\n%s", out)
	}
	// Without -model and without -casestudy the command refuses to run.
	if _, err := capture(t, func() error { return run([]string{"lint"}) }); err == nil {
		t.Error("lint without -model succeeded")
	}
}
