package workspace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/mapping"
	"upsim/internal/service"
	"upsim/internal/vpm"
	"upsim/internal/vtcl"
)

func initCaseStudy(t *testing.T) (*Workspace, string) {
	t.Helper()
	dir := t.TempDir()
	m, err := casestudy.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := casestudy.PrintingService(m); err != nil {
		t.Fatal(err)
	}
	w, err := Init(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SaveMapping("t1-p2", casestudy.TableIMapping()); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveMapping("t15-p3", casestudy.T15P3Mapping()); err != nil {
		t.Fatal(err)
	}
	patterns := filepath.Join(dir, PatternsDir, "q.vtcl")
	src := `pattern clients(C) = { below(C, "models.usi.diagrams.infrastructure"); }`
	if err := os.WriteFile(patterns, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return w, dir
}

func TestInitAndLoadRoundTrip(t *testing.T) {
	_, dir := initCaseStudy(t)
	w, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if w.Model.Name() != casestudy.ModelName {
		t.Errorf("model name = %q", w.Model.Name())
	}
	if got := w.MappingNames(); len(got) != 2 || got[0] != "t1-p2" || got[1] != "t15-p3" {
		t.Errorf("mappings = %v", got)
	}
	mp, ok := w.Mapping("t1-p2")
	if !ok || mp.Len() != 5 {
		t.Fatalf("t1-p2 mapping = %v, %v", mp, ok)
	}
	if got := w.PatternFileNames(); len(got) != 1 || got[0] != "q" {
		t.Errorf("pattern files = %v", got)
	}
	pats, ok := w.Patterns("q")
	if !ok || len(pats) != 1 || pats[0].Name != "clients" {
		t.Errorf("patterns = %v, %v", pats, ok)
	}
	s := w.Summary()
	for _, want := range []string{"t1-p2", "t15-p3", `model "usi"`} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}

func TestWorkspaceDrivesGeneration(t *testing.T) {
	// The full loop: load from disk, generate the Figure 11 UPSIM.
	_, dir := initCaseStudy(t)
	w, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	act, ok := w.Model.Activity(casestudy.PrintingServiceName)
	if !ok {
		t.Fatal("printing activity missing")
	}
	svc, err := service.FromActivity(act)
	if err != nil {
		t.Fatal(err)
	}
	mp, _ := w.Mapping("t1-p2")
	gen, err := core.NewGenerator(w.Model, casestudy.DiagramName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(svc, mp, "fig11", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.NodeNames()
	if len(got) != len(casestudy.Figure11Nodes) {
		t.Fatalf("UPSIM = %v", got)
	}
	// Persist the model including the recorded UPSIM, reload, verify.
	if err := gen.Record(res); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveModel(); err != nil {
		t.Fatal(err)
	}
	w2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w2.Model.Diagram("fig11"); !ok {
		t.Error("generated UPSIM lost after save/load")
	}
}

func TestInitErrors(t *testing.T) {
	dir := t.TempDir()
	m, _ := casestudy.BuildModel()
	if _, err := Init(dir, nil); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := Init(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Init(dir, m); err == nil {
		t.Error("double init should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty dir should fail (no model)")
	}
	// Corrupt model.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ModelFile), []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("broken model should fail")
	}
	// Corrupt mapping named in the error.
	_, dir2 := initCaseStudy(t)
	bad := filepath.Join(dir2, MappingsDir, "bad.xml")
	if err := os.WriteFile(bad, []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir2); err == nil || !strings.Contains(err.Error(), "bad.xml") {
		t.Errorf("broken mapping error = %v", err)
	}
	if err := os.Remove(bad); err != nil {
		t.Fatal(err)
	}
	// Corrupt pattern named in the error.
	badPat := filepath.Join(dir2, PatternsDir, "bad.vtcl")
	if err := os.WriteFile(badPat, []byte("pattern ???"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir2); err == nil || !strings.Contains(err.Error(), "bad.vtcl") {
		t.Errorf("broken pattern error = %v", err)
	}
}

func TestSaveMappingValidation(t *testing.T) {
	w, _ := initCaseStudy(t)
	if err := w.SaveMapping("", casestudy.TableIMapping()); err == nil {
		t.Error("empty name should fail")
	}
	if err := w.SaveMapping("a/b", casestudy.TableIMapping()); err == nil {
		t.Error("path separator should fail")
	}
	if err := w.SaveMapping("x", nil); err == nil {
		t.Error("nil mapping should fail")
	}
	if _, ok := w.Mapping("ghost"); ok {
		t.Error("unknown mapping should be absent")
	}
}

// Mapping parses a loaded mapping file by name.
func (w *Workspace) Mapping(name string) (*mapping.Mapping, bool) {
	if _, ok := w.mappings[name]; !ok {
		return nil, false
	}
	f, err := os.Open(filepath.Join(w.Dir, MappingsDir, name+".xml"))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	mp, err := mapping.Parse(f)
	return mp, err == nil
}

// Patterns parses the patterns of one loaded .vtcl file.
func (w *Workspace) Patterns(name string) ([]*vpm.Pattern, bool) {
	if _, ok := w.patterns[name]; !ok {
		return nil, false
	}
	src, err := os.ReadFile(filepath.Join(w.Dir, PatternsDir, name+".vtcl"))
	if err != nil {
		return nil, false
	}
	pats, err := vtcl.Parse(string(src))
	return pats, err == nil
}
