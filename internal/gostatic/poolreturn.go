package gostatic

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// poolreturnRule enforces sync.Pool Get/Put balance in kernel code. The
// compiled kernels amortise their per-search scratch (visited bitsets, bump
// arenas) through sync.Pools; a Get without a Put does not leak memory, but
// it silently degrades the pool to an allocator — every "pooled" acquisition
// becomes a fresh allocation and the allocation-free warm path regresses
// without any test failing.
//
// The rule recognises two layers:
//
//   - Direct pool access: a call to <chain>.Get() where the selector chain
//     names a pool (contains "pool", e.g. c.pool.Get) must be matched by a
//     <chain>.Put(...) in the same function, or the acquired value must be
//     returned (ownership transfer, as in the getScratch/getArena wrappers).
//   - Wrapper pairs: a function getX that acquires from a pool is paired
//     with the releaser putX by name. Every caller of getX must call putX in
//     the same function (deferred or direct) or return the acquired value to
//     its own caller — the pattern minimalCutBits uses to hand its arena to
//     MinimalCutSets.
type poolreturnRule struct{}

func (poolreturnRule) ID() string         { return "poolreturn" }
func (poolreturnRule) Severity() Severity { return SeverityError }
func (poolreturnRule) Doc() string {
	return "every sync.Pool Get (direct or via a get* wrapper) needs a matching Put on the function's exit paths"
}

// poolChain reports whether a dotted callee chain (c.pool.Get) goes through
// a pool: some path element names it, case-insensitively.
func poolChain(name string) bool {
	return strings.Contains(strings.ToLower(name), "pool.")
}

func (r poolreturnRule) Check(p *Package) []Diagnostic {
	// Pass 1: classify wrapper functions — acquirers call pool Get,
	// releasers call pool Put.
	acquirers := make(map[string]bool)
	releasers := make(map[string]bool)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := calleeName(call.Fun)
				switch {
				case strings.HasSuffix(name, ".Get") && poolChain(name):
					acquirers[fd.Name.Name] = true
				case strings.HasSuffix(name, ".Put") && poolChain(name):
					releasers[fd.Name.Name] = true
				}
				return true
			})
		}
	}
	// Pair getX -> putX by name.
	paired := make(map[string]string)
	for a := range acquirers {
		if rest, ok := strings.CutPrefix(a, "get"); ok {
			if rel := "put" + rest; releasers[rel] {
				paired[a] = rel
			}
		}
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, r.checkFunc(p, fd, paired)...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

func (r poolreturnRule) checkFunc(p *Package, fd *ast.FuncDecl, paired map[string]string) []Diagnostic {
	var out []Diagnostic
	body := fd.Body

	// hasPut reports a direct pool Put anywhere in the function.
	hasPut := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := calleeName(call.Fun); strings.HasSuffix(name, ".Put") && poolChain(name) {
				hasPut = true
			}
		}
		return !hasPut
	})

	// callsNamed reports any call whose base name is target.
	callsNamed := func(target string) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && calleeBase(call.Fun) == target {
				found = true
			}
			return !found
		})
		return found
	}

	// inReturn reports whether pos lies inside a return statement.
	inReturn := func(pos ast.Node) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				if ret.Pos() <= pos.Pos() && pos.Pos() < ret.End() {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// unwrap strips parens and type assertions: `cs.pool.Get().(*bitArena)`
	// binds the Get call through a TypeAssertExpr.
	var unwrap func(e ast.Expr) ast.Expr
	unwrap = func(e ast.Expr) ast.Expr {
		switch v := e.(type) {
		case *ast.ParenExpr:
			return unwrap(v.X)
		case *ast.TypeAssertExpr:
			return unwrap(v.X)
		}
		return e
	}

	// assignedIdent returns the first non-blank identifier a call's result is
	// bound to, or "".
	assignedIdent := func(call *ast.CallExpr) string {
		name := ""
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Rhs) != 1 || unwrap(assign.Rhs[0]) != ast.Expr(call) {
				return name == ""
			}
			for _, lhs := range assign.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					name = id.Name
					break
				}
			}
			return false
		})
		return name
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call.Fun)
		switch {
		case strings.HasSuffix(name, ".Get") && poolChain(name):
			if hasPut || inReturn(call) {
				return true
			}
			if v := assignedIdent(call); v != "" && identInReturns(body, v) {
				return true
			}
			out = append(out, p.diag(r, call.Pos(),
				fmt.Sprintf("%s acquires from a pool via %s but never calls Put and does not return the value", fd.Name.Name, name),
				"add a (deferred) Put on every exit path or return the acquired value"))
		default:
			base := calleeBase(call.Fun)
			releaser, isAcquirer := paired[base]
			if !isAcquirer || fd.Name.Name == base {
				return true
			}
			if callsNamed(releaser) || inReturn(call) {
				return true
			}
			if v := assignedIdent(call); v != "" && identInReturns(body, v) {
				return true
			}
			out = append(out, p.diag(r, call.Pos(),
				fmt.Sprintf("%s acquires pooled scratch via %s but never calls %s and does not return it", fd.Name.Name, base, releaser),
				fmt.Sprintf("add `defer %s(...)` after the %s call or hand the value to the caller", releaser, base)))
		}
		return true
	})
	return out
}
