package gostatic

import (
	"fmt"
	"go/ast"
	"path/filepath"
)

// testonlyRule keeps test scaffolding out of the product packages' API: it
// reports an exported top-level name or method, declared in a non-test file
// of an internal/* package, whose identifier no non-test file of the load
// uses. Such a name is either dead or exists only for tests, so a reader of
// the package cannot tell it from the pipeline's API; it belongs deleted, or
// in the _test.go file that needs it.
//
// It is the engine's one whole-tree rule (TreeRule): a use anywhere counts,
// bench/ included, so CI must run it over ./... from the module root. It
// judges an internal package only when the load also holds that package's
// module root — the directory above its internal/ element — so a partial
// run such as `upsimvet ./internal/uml` cannot report a name whose users
// were simply not loaded.
//
// Like every rule here it is syntactic: a use is any identifier of the same
// name that does not declare something, so a method stays hidden while
// another type's method or field of that name is used. Exempt are
// internal/testutil (test support by design) and methods named by an
// interface the tree declares or relies on from the standard library — a
// method called through an interface has no identifier use of its own.
type testonlyRule struct{}

func (testonlyRule) ID() string         { return "testonly" }
func (testonlyRule) Severity() Severity { return SeverityError }
func (testonlyRule) Doc() string {
	return "exported internal/* names must be used by some non-test file of the tree"
}

// Check is empty: the rule needs every package at once (CheckTree).
func (testonlyRule) Check(*Package) []Diagnostic { return nil }

// stdInterfaceMethods are the standard-library interface methods the tree
// implements for callers outside it (fmt, errors, encoding/json, encoding,
// io, net/http).
var stdInterfaceMethods = []string{
	"Error", "String", "Unwrap", "MarshalJSON", "MarshalText", "UnmarshalText",
	"Read", "Write", "WriteHeader", "Close",
}

func (r testonlyRule) CheckTree(pkgs []*Package) []Diagnostic {
	loaded := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		loaded[filepath.Clean(p.Dir)] = true
	}
	used := make(map[string]bool)
	ifaceMethods := make(map[string]bool)
	for _, name := range stdInterfaceMethods {
		ifaceMethods[name] = true
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			collectUses(f, used, ifaceMethods)
		}
	}
	var out []Diagnostic
	for _, p := range pkgs {
		root, ok := moduleRoot(p.Dir)
		if !ok || !loaded[root] {
			continue
		}
		if rel, _ := filepath.Rel(root, filepath.Clean(p.Dir)); rel == filepath.Join("internal", "testutil") {
			continue
		}
		report := func(id *ast.Ident, what string) {
			if !id.IsExported() || used[id.Name] {
				return
			}
			out = append(out, p.diag(r, id.Pos(),
				fmt.Sprintf("exported %s of package %s is used by no non-test file", what, p.Name),
				"delete it, or move it into the _test.go file that uses it"))
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						report(d.Name, "func "+d.Name.Name)
					} else if !ifaceMethods[d.Name.Name] {
						report(d.Name, "method "+recvTypeName(d.Recv)+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							report(s.Name, "type "+s.Name.Name)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								report(name, d.Tok.String()+" "+name.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// collectUses records in used every identifier of f that does not declare
// something — declared names, field and parameter names and method
// receivers (a type's own methods are not users of it) are skipped — and in
// ifaceMethods every method name an interface type of f declares.
func collectUses(f *ast.File, used, ifaceMethods map[string]bool) {
	declares := make(map[*ast.Ident]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declares[n.Name] = true
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						declares[id] = true
					}
					return true
				})
			}
		case *ast.TypeSpec:
			declares[n.Name] = true
		case *ast.ValueSpec:
			for _, name := range n.Names {
				declares[name] = true
			}
		case *ast.Field:
			for _, name := range n.Names {
				declares[name] = true
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					ifaceMethods[name.Name] = true
				}
			}
		case *ast.Ident:
			if !declares[n] {
				used[n.Name] = true
			}
		}
		return true
	})
}

// moduleRoot returns the directory above dir's innermost "internal" path
// element, and false when dir is not inside an internal/ tree.
func moduleRoot(dir string) (string, bool) {
	for d := filepath.Clean(dir); ; {
		parent := filepath.Dir(d)
		if filepath.Base(d) == "internal" {
			return parent, true
		}
		if parent == d {
			return "", false
		}
		d = parent
	}
}

// recvTypeName returns the receiver's type name, without pointer or type
// parameters.
func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}
