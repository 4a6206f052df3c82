package gostatic

// Shared AST helpers for the rule implementations. Everything here is
// deliberately syntactic (no go/types): the rules match on lexical shapes —
// selector chains, literal kinds, position intervals — which is exactly what
// the enforced invariants are written in terms of.

import (
	"go/ast"
	"go/token"
	"strings"
)

// calleeName flattens a call's function expression into its dotted name:
// fmt.Errorf -> "fmt.Errorf", c.pool.Get -> "c.pool.Get", append ->
// "append". Calls through anything other than identifier/selector chains
// (function results, index expressions) flatten to "".
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		prefix := calleeName(f.X)
		if prefix == "" {
			return ""
		}
		return prefix + "." + f.Sel.Name
	case *ast.ParenExpr:
		return calleeName(f.X)
	}
	return ""
}

// calleeBase returns the last element of the dotted callee name ("Get" for
// c.pool.Get), or "" when the callee is not a name chain.
func calleeBase(fun ast.Expr) string {
	name := calleeName(fun)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// loopRanges collects the position intervals of every loop iteration scope
// under root: for/range bodies plus for conditions and post statements (they
// execute once per iteration too).
func loopRanges(root ast.Node) []posRange {
	var out []posRange
	ast.Inspect(root, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			if l.Cond != nil {
				out = append(out, posRange{l.Cond.Pos(), l.Cond.End()})
			}
			if l.Post != nil {
				out = append(out, posRange{l.Post.Pos(), l.Post.End()})
			}
			out = append(out, posRange{l.Body.Pos(), l.Body.End()})
		case *ast.RangeStmt:
			out = append(out, posRange{l.Body.Pos(), l.Body.End()})
		}
		return true
	})
	return out
}

// posRange is a half-open source interval.
type posRange struct{ lo, hi token.Pos }

func (r posRange) contains(p token.Pos) bool { return p >= r.lo && p < r.hi }

// inAny reports whether p falls inside any of the ranges.
func inAny(ranges []posRange, p token.Pos) bool {
	for _, r := range ranges {
		if r.contains(p) {
			return true
		}
	}
	return false
}

// identInReturns reports whether an identifier named name appears anywhere
// inside a return statement under root — the "ownership transferred to the
// caller" escape shared by the span and pool rules.
func identInReturns(root ast.Node, name string) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return !found
		}
		for _, e := range ret.Results {
			ast.Inspect(e, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// hasMethodCall reports whether root contains a call <recv>.<method>(...)
// where recv is an identifier named recvName.
func hasMethodCall(root ast.Node, recvName, method string) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return !found
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName {
			found = true
		}
		return !found
	})
	return found
}

// isStringLiteral reports whether e is (possibly parenthesised) a string
// basic literal.
func isStringLiteral(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return v.Kind == token.STRING
	case *ast.ParenExpr:
		return isStringLiteral(v.X)
	}
	return false
}

// isNilish reports whether e is syntactically a never-preallocated slice
// origin: nil, an empty slice literal ([]T{}), a conversion of nil
// (bitset(nil)), or make with an explicit zero length and no capacity.
func isNilish(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name == "nil"
	case *ast.ParenExpr:
		return isNilish(v.X)
	case *ast.CompositeLit:
		if _, isSlice := v.Type.(*ast.ArrayType); isSlice {
			return len(v.Elts) == 0
		}
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" {
			// make([]T, 0) grows on first append; any capacity argument (or a
			// non-zero length) counts as preallocated.
			if len(v.Args) == 2 {
				if lit, ok := v.Args[1].(*ast.BasicLit); ok && lit.Value == "0" {
					return true
				}
			}
			return false
		}
		// Conversions like bitset(nil).
		if len(v.Args) == 1 {
			return isNilish(v.Args[0])
		}
	}
	return false
}

// growableLocals maps, for one function body, local slice variables whose
// declaration can never carry preallocated capacity: `var x []T`,
// `x := []T{}`, `x := bitset(nil)`, `x := make([]T, 0)`. Appending to one of
// these inside a loop reallocates as it grows — the hotalloc finding.
func growableLocals(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if len(vs.Values) == 0 {
						// `var x []T` — zero value nil slice.
						if _, isSlice := vs.Type.(*ast.ArrayType); isSlice {
							out[name.Name] = true
						}
						continue
					}
					if i < len(vs.Values) && isNilish(vs.Values[i]) {
						out[name.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if isNilish(s.Rhs[i]) {
					out[id.Name] = true
				}
			}
		}
		return true
	})
	return out
}
