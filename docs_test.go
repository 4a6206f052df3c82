package upsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docsFiles are the markdown surfaces whose links must not rot: the README
// route table points into docs/API.md, the tutorial points back, and both
// point at DESIGN.md / EXPERIMENTS.md sections. CI runs this as part of the
// docs job; it is tier-1 like everything else.
func docsFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, docs...)
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingAnchors returns the GitHub-style anchor slugs of every markdown
// heading in src, skipping fenced code blocks (a `# comment` inside a sh
// block is not a heading).
func headingAnchors(src string) map[string]bool {
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(line, "#"))
		var b strings.Builder
		for _, r := range strings.ToLower(text) {
			switch {
			case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
				b.WriteRune(r)
			case r == ' ' || r == '-':
				b.WriteByte('-')
			}
		}
		anchors[b.String()] = true
	}
	return anchors
}

// TestDocsRelativeLinks checks every relative markdown link in the doc
// surfaces: the target file must exist, and when the link carries a
// #fragment, the target must contain a heading with that anchor.
func TestDocsRelativeLinks(t *testing.T) {
	cache := map[string]map[string]bool{}
	anchorsOf := func(path string) (map[string]bool, error) {
		if a, ok := cache[path]; ok {
			return a, nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		a := headingAnchors(string(data))
		cache[path] = a
		return a, nil
	}
	for _, file := range docsFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; availability is not this test's business
			}
			path, frag, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", file, target, err)
					continue
				}
			}
			if frag == "" || !strings.HasSuffix(resolved, ".md") {
				continue
			}
			anchors, err := anchorsOf(resolved)
			if err != nil {
				t.Errorf("%s: link %q: %v", file, target, err)
				continue
			}
			if !anchors[frag] {
				t.Errorf("%s: link %q: no heading with anchor #%s in %s", file, target, frag, resolved)
			}
		}
	}
}

// parseGo parses every non-test Go file under dir, comments included,
// skipping testdata and hidden directories.
func parseGo(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// callStrings calls fn with every string-literal argument of every call in
// files.
func callStrings(files []*ast.File, fn func(call *ast.CallExpr, s string)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						fn(call, s)
					}
				}
			}
			return true
		})
	}
}

// registeredMetrics returns every metric name registered in
// obs.DefaultRegistry: the name argument of each obs.NewCounter,
// obs.NewGauge and obs.NewHistogram call. The registry lists only families
// that have recorded a value, so the names come from the calls.
func registeredMetrics(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	callStrings(files, func(call *ast.CallExpr, s string) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !strings.HasPrefix(s, "upsim_") {
			return
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "obs" && strings.HasPrefix(sel.Sel.Name, "New") {
			names[s] = true
		}
	})
	return names
}

// metricRef matches a metric reference in prose: a name, a family
// alternation (upsim_cache_{hits,misses}_total, possibly wrapped across
// lines), a label set (upsim_explain_seconds{mode,kernel}) or a wildcard
// (upsim_http_*).
var metricRef = regexp.MustCompile(`upsim_[a-z0-9_]*(\{[^}]*\}[a-z0-9_]*|\*[a-z0-9_]*)?`)

// metricKnown reports whether ref names registered metrics: every member of
// an alternation must be registered, a wildcard must match one, and a bare
// name must be registered or end at an underscore boundary of one (as in
// `grep upsim_http`).
func metricKnown(ref string, registered map[string]bool) bool {
	if head, rest, ok := strings.Cut(ref, "{"); ok {
		if !strings.HasSuffix(head, "_") {
			return metricKnown(head, registered) // a label set
		}
		alts, suffix, _ := strings.Cut(rest, "}")
		for _, alt := range strings.Split(alts, ",") {
			if alt = strings.TrimSpace(alt); alt != "" && alt != "…" && !metricKnown(head+alt+suffix, registered) {
				return false
			}
		}
		return true
	}
	if registered[ref] {
		return true
	}
	prefix, suffix, wild := strings.Cut(ref, "*")
	if !wild {
		prefix = strings.TrimSuffix(ref, "_") + "_"
	}
	for name := range registered {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// TestDocsMetricNamesRegistered checks that every upsim_* metric named in
// the docs or in a Go comment is registered, so a renamed or misspelled
// metric cannot linger in the documentation.
func TestDocsMetricNamesRegistered(t *testing.T) {
	fset, files := parseGo(t, ".")
	registered := registeredMetrics(files)
	if len(registered) < 20 {
		t.Fatalf("found only %d registered metrics: %v", len(registered), registered)
	}
	check := func(where, text string) {
		for _, ref := range metricRef.FindAllString(text, -1) {
			if !metricKnown(ref, registered) {
				t.Errorf("%s: %s names no registered metric", where, ref)
			}
		}
	}
	for _, file := range docsFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		check(file, string(data))
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			check(fset.Position(cg.Pos()).String(), cg.Text())
		}
	}
}

// TestDocsCoverRoutes checks that every route pattern internal/server
// registers is documented in docs/API.md.
func TestDocsCoverRoutes(t *testing.T) {
	api, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, files := parseGo(t, "internal/server")
	pattern := regexp.MustCompile(`^(GET|POST|PUT|PATCH|DELETE) /`)
	routes := 0
	callStrings(files, func(_ *ast.CallExpr, s string) {
		if !pattern.MatchString(s) {
			return
		}
		routes++
		if !strings.Contains(string(api), "`"+s+"`") {
			t.Errorf("route %q is not documented in docs/API.md", s)
		}
	})
	if routes < 10 {
		t.Fatalf("found only %d route patterns in internal/server", routes)
	}
}

// TestDocsCoverDaemonFlags checks that every flag cmd/upsimd defines — the
// name argument of each flag.XxxVar(&field, "name", …) call — appears as
// -name in README.md.
func TestDocsCoverDaemonFlags(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, files := parseGo(t, "cmd/upsimd")
	flags := 0
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasSuffix(sel.Sel.Name, "Var") {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			lit, ok := call.Args[1].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			flags++
			if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).Match(readme) {
				t.Errorf("upsimd flag -%s is not documented in README.md", name)
			}
			return true
		})
	}
	if flags < 5 {
		t.Fatalf("found only %d flag definitions in cmd/upsimd", flags)
	}
}
