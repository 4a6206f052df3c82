package gostatic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches the fixture expectation markers: `// want <rule>` on the
// line that must produce a diagnostic of that rule.
var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

// wantMarkers parses every fixture file under dir into the expected
// diagnostic set, as "file:line:rule" keys with the file relative to dir.
func wantMarkers(t *testing.T, dir string) []string {
	t.Helper()
	var want []string
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				want = append(want, fmt.Sprintf("%s:%d:%s", rel, i+1, m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	return want
}

// TestRuleFixtures runs the full default registry over each per-rule mutated
// fixture and demands the diagnostics match the `// want` markers exactly —
// same file, same line, same rule, nothing extra. Running every rule (not
// just the fixture's own) doubles as a cross-rule false-positive check on
// each fixture. The testonly fixture is a small module (root, internal/lib
// with its test, a bench-style command), since that rule reads the whole
// load.
func TestRuleFixtures(t *testing.T) {
	for _, rule := range []string{"hotalloc", "spanconv", "poolreturn", "jsontag", "testonly"} {
		t.Run(rule, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", rule)
			want := wantMarkers(t, dir)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want markers", dir)
			}
			pkgs, err := Load(dir + "/...")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Default().Run(pkgs)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, 0, len(rep.Diagnostics))
			for _, d := range rep.Diagnostics {
				rel, err := filepath.Rel(dir, d.File)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s:%d:%s", rel, d.Line, d.Rule))
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("diagnostics mismatch\n got: %v\nwant: %v\nfull report:\n%s",
					got, want, renderString(t, rep))
			}
		})
	}
}

// TestTestonlyPartialLoad pins that testonly judges only a load holding the
// module root: a run over the internal package alone, or over it and the
// bench-style command, does not see the root's uses and must report
// nothing rather than name them.
func TestTestonlyPartialLoad(t *testing.T) {
	fixture := filepath.Join("testdata", "src", "testonly")
	for _, patterns := range [][]string{
		{filepath.Join(fixture, "internal", "lib")},
		{filepath.Join(fixture, "internal", "..."), filepath.Join(fixture, "bench")},
	} {
		pkgs, err := Load(patterns...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Default().Run(pkgs)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Errorf("partial load %v:\n%s", patterns, renderString(t, rep))
		}
	}
}

// TestCleanTree is the no-false-positive gate: the repository's own source
// must analyse clean with every rule registered — the same invocation CI
// runs via `upsimvet ./...`.
func TestCleanTree(t *testing.T) {
	pkgs, err := Load("../../...")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Default().Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("repository tree is not clean:\n%s", renderString(t, rep))
	}
	if rep.Packages < 10 {
		t.Errorf("loaded only %d packages from the tree, expected the full repo", rep.Packages)
	}
	if rep.RulesRun != 5 {
		t.Errorf("rules run = %d, want 5", rep.RulesRun)
	}
}

// TestHotPathAnnotationsPresent pins the contract that the compiled kernels
// actually opt into the hotalloc rule: if a refactor drops the directives,
// the rule silently checks nothing, so the analyzer's own tests fail first.
func TestHotPathAnnotationsPresent(t *testing.T) {
	for _, dir := range []string{"../pathdisc", "../depend"} {
		pkgs, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if strings.HasPrefix(c.Text, HotPathDirective) {
							found++
						}
					}
				}
			}
		}
		if found < 5 {
			t.Errorf("%s: found %d %s directives, want >= 5", dir, found, HotPathDirective)
		}
	}
}

// TestReportJSONRoundTrip checks the report survives EncodeJSON/decodeReport
// with diagnostics, counts and ordering intact.
func TestReportJSONRoundTrip(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src", "hotalloc"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Default().Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := decodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Summary() != rep.Summary() {
		t.Errorf("summary changed across round-trip: %q != %q", back.Summary(), rep.Summary())
	}
	if len(back.Diagnostics) != len(rep.Diagnostics) {
		t.Fatalf("diagnostics %d != %d", len(back.Diagnostics), len(rep.Diagnostics))
	}
	for i := range back.Diagnostics {
		if back.Diagnostics[i] != rep.Diagnostics[i] {
			t.Errorf("diagnostic %d changed: %+v != %+v", i, back.Diagnostics[i], rep.Diagnostics[i])
		}
	}
}

// TestRegistry covers registration invariants: duplicates rejected,
// registration order preserved.
func TestRegistry(t *testing.T) {
	reg := Default()
	if err := reg.Register(hotallocRule{}); err == nil {
		t.Error("duplicate rule registration succeeded")
	}
	if err := reg.Register(nil); err == nil {
		t.Error("nil rule registration succeeded")
	}
	rules := reg.Rules()
	wantOrder := []string{"hotalloc", "spanconv", "poolreturn", "jsontag", "testonly"}
	if len(rules) != len(wantOrder) {
		t.Fatalf("rules = %d, want %d", len(rules), len(wantOrder))
	}
	for i, id := range wantOrder {
		if rules[i].ID() != id {
			t.Errorf("rule %d = %q, want %q", i, rules[i].ID(), id)
		}
		if rules[i].Doc() == "" {
			t.Errorf("rule %q has no doc", id)
		}
	}
}

func renderString(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// decodeReport reads a report previously written by EncodeJSON, recomputing
// the severity tallies from the decoded diagnostics so a hand-edited count
// cannot disagree with the payload.
func decodeReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("gostatic: decode report: %w", err)
	}
	r.count()
	return &r, nil
}
