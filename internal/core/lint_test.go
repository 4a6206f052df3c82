package core

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"upsim/internal/lint"
	"upsim/internal/mapping"
	"upsim/internal/obs"
)

// The clean diamond fixture carries two non-error findings by construction —
// the isolated "iso" client (warning) and the redundant c1—c2 interconnect
// (parallel-links info) — so LintFail must still let it through: only
// error-severity findings block generation.
func TestGenerateLintFailCleanFixture(t *testing.T) {
	f := buildFixture(t)
	gen, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(f.svc, f.mp, "upsim", Options{Lint: LintFail})
	if err != nil {
		t.Fatalf("LintFail on warning-only fixture: %v", err)
	}
	if res == nil || res.UPSIM == nil {
		t.Fatal("no result")
	}
}

func TestGenerateLintFailAborts(t *testing.T) {
	f := buildFixture(t)
	f.mp = withPair(t, f.mp, "fetch", "ghost", "srv")
	gen, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gen.Generate(f.svc, f.mp, "upsim", Options{Lint: LintFail})
	if err == nil {
		t.Fatal("LintFail let a dangling mapping ref through")
	}
	lerr, ok := lint.AsError(err)
	if !ok {
		t.Fatalf("error is not a *lint.Error: %v", err)
	}
	if lerr.Report == nil || lerr.Report.Errors == 0 {
		t.Fatalf("lint error without report: %+v", lerr)
	}
	found := false
	for _, d := range lerr.Report.Diagnostics {
		if d.Rule == "mapping-dangling-ref" && strings.Contains(d.Message, "ghost") {
			found = true
		}
	}
	if !found {
		t.Errorf("mapping-dangling-ref missing from report: %+v", lerr.Report.Diagnostics)
	}
	if !strings.Contains(err.Error(), "pre-flight") {
		t.Errorf("error not labelled as pre-flight: %v", err)
	}
}

// LintWarn logs every warning-or-worse finding and proceeds; the fixture's
// isolated client guarantees at least one logged finding on a model that
// still generates fine.
func TestGenerateLintWarnLogsAndProceeds(t *testing.T) {
	f := buildFixture(t)
	var buf bytes.Buffer
	obs.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	defer obs.SetLogger(nil)

	gen, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(f.svc, f.mp, "upsim", Options{Lint: LintWarn}); err != nil {
		t.Fatalf("LintWarn blocked generation: %v", err)
	}
	logged := buf.String()
	if !strings.Contains(logged, "lint finding") || !strings.Contains(logged, "topology-isolated-node") {
		t.Errorf("isolated-node warning not logged:\n%s", logged)
	}
	if strings.Contains(logged, "topology-parallel-links") {
		t.Errorf("info-severity finding should not be logged under LintWarn:\n%s", logged)
	}
}

// LintOff (the zero value) must not run the registry at all: a mapping
// defect lint would catch surfaces later through CheckMapping instead.
func TestGenerateLintOffDefersToCheckMapping(t *testing.T) {
	f := buildFixture(t)
	f.mp = withPair(t, f.mp, "fetch", "ghost", "srv")
	gen, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gen.Generate(f.svc, f.mp, "upsim", Options{})
	if err == nil {
		t.Fatal("dangling ref generated successfully")
	}
	if _, ok := lint.AsError(err); ok {
		t.Errorf("LintOff still produced a lint error: %v", err)
	}
}

func TestGenerateLintFailMissingPair(t *testing.T) {
	f := buildFixture(t)
	mp := mapping.New()
	if err := mp.Add(mapping.Pair{AtomicService: "fetch", Requester: "t1", Provider: "srv"}); err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gen.Generate(f.svc, mp, "upsim", Options{Lint: LintFail})
	lerr, ok := lint.AsError(err)
	if !ok {
		t.Fatalf("want lint error, got %v", err)
	}
	found := false
	for _, d := range lerr.Report.Diagnostics {
		if d.Rule == "mapping-missing-pair" && strings.Contains(d.Element, "deliver") {
			found = true
		}
	}
	if !found {
		t.Errorf("mapping-missing-pair not reported: %+v", lerr.Report.Diagnostics)
	}
}

func TestLintModeString(t *testing.T) {
	cases := map[LintMode]string{
		LintOff:     "off",
		LintWarn:    "warn",
		LintFail:    "fail",
		LintMode(9): "LintMode(9)",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("LintMode(%d).String() = %q, want %q", mode, got, want)
		}
	}
}
