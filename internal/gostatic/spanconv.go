package gostatic

import (
	"fmt"
	"go/ast"
)

// spanconvRule enforces the span lifecycle convention of the observability
// layer: every span opened with obs.StartSpan, obs.StartStage (the
// pipeline's child-only constructor, whose nil span outside a trace ends
// as a no-op), the facade's upsim.StartSpan or a future StartSpanContext
// variant must be closed by
// an End call in the same function — deferred or direct — or handed to the
// caller by returning the span. An unclosed span renders as "not ended" in
// -trace output, fails Span.WellFormed, and mis-times every parent stage;
// a span assigned to the blank identifier can never be ended at all.
//
// The rule is ownership-based rather than defer-only: the pipeline
// deliberately ends per-stage spans mid-function (step6/step7/step8 share
// one generate call), so demanding `defer` everywhere would break the
// per-stage timings. What the rule guarantees is that an End (or a transfer
// of ownership via return) exists at all — the failure mode that actually
// rots silently.
type spanconvRule struct{}

func (spanconvRule) ID() string         { return "spanconv" }
func (spanconvRule) Severity() Severity { return SeverityError }
func (spanconvRule) Doc() string {
	return "every StartSpan or StartStage must have a matching End (or return the span) in the same function"
}

// isStartSpanCall reports whether call invokes a span constructor: the
// selector or identifier name StartSpan, StartStage or StartSpanContext.
func isStartSpanCall(call *ast.CallExpr) bool {
	switch calleeBase(call.Fun) {
	case "StartSpan", "StartStage", "StartSpanContext":
		return true
	}
	return false
}

func (r spanconvRule) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, r.checkFunc(p, fd)...)
		}
	}
	return out
}

func (r spanconvRule) checkFunc(p *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || !isStartSpanCall(call) {
			return true
		}
		// StartSpan returns (context, span): the span is the second result.
		if len(assign.Lhs) != 2 {
			return true
		}
		span, ok := assign.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		name := span.Name
		if name == "_" {
			out = append(out, p.diag(r, assign.Pos(),
				fmt.Sprintf("span from %s is discarded, so it can never be ended", calleeName(call.Fun)),
				"bind the span and call End (deferred for function-scoped spans)"))
			return true
		}
		if hasMethodCall(fd.Body, name, "End") || identInReturns(fd.Body, name) {
			return true
		}
		out = append(out, p.diag(r, assign.Pos(),
			fmt.Sprintf("span %q started in %s has no End call in the function and is not returned", name, fd.Name.Name),
			fmt.Sprintf("add `defer %s.End()` after the %s call", name, calleeBase(call.Fun))))
		return true
	})
	return out
}
