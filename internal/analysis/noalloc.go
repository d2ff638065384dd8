package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc enforces //dashmm:noalloc: functions so annotated are the
// runtime's hot paths (spawn, deque push/pop, edge delivery, parcel send)
// and must not contain allocation idioms. The check is syntactic — it flags
// the constructs that allocate or that famously escape, not a full escape
// analysis:
//
//   - make(...) and new(...);
//   - slice and map composite literals, and &CompositeLit (escapes to heap
//     when the pointer outlives the frame — in a hot path, assume it does);
//   - function literals that capture variables (closure allocation);
//   - any call into fmt (formatting allocates);
//   - append whose destination differs from its first argument — growing a
//     fresh slice. In-place x = append(x, ...) and the reuse idiom
//     x = append(x[:0], ...) are allowed.
//
// Plain struct-value composite literals (trace.Event{...}) stay on the
// stack and are allowed.
type NoAlloc struct{}

// NewNoAlloc returns the hotpath-noalloc analyzer.
func NewNoAlloc() *NoAlloc { return &NoAlloc{} }

// Name implements Analyzer.
func (*NoAlloc) Name() string { return "hotpath-noalloc" }

// Doc implements Analyzer.
func (*NoAlloc) Doc() string {
	return "//dashmm:noalloc functions must not contain allocation idioms"
}

// Run implements Analyzer.
func (c *NoAlloc) Run(p *Pass) {
	walkFuncs(p, func(_ *ast.File, fn *ast.FuncDecl) {
		if _, ok := funcHasDirective(fn, "dashmm:noalloc"); !ok {
			return
		}
		c.checkBody(p, fn)
	})
}

func (c *NoAlloc) checkBody(p *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			c.checkCall(p, node)
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[node]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				p.Report(node.Pos(), "slice literal allocates")
			case *types.Map:
				p.Report(node.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if cl, ok := node.X.(*ast.CompositeLit); ok {
					p.Report(cl.Pos(), "&composite literal escapes to the heap")
					return false
				}
			}
		case *ast.FuncLit:
			if capturesVariables(p, node) {
				p.Report(node.Pos(), "closure captures variables and allocates")
			}
			return false // don't descend: the literal runs later, off the hot path
		case *ast.AssignStmt:
			c.checkAppendAssign(p, node)
		}
		return true
	})
}

// checkCall flags make/new builtins and fmt calls.
func (c *NoAlloc) checkCall(p *Pass, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if isBuiltin(p, fun) {
				p.Report(call.Pos(), "make allocates")
			}
		case "new":
			if isBuiltin(p, fun) {
				p.Report(call.Pos(), "new allocates")
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				p.Report(call.Pos(), "fmt.%s allocates (formatting, boxing of ...any args)", fun.Sel.Name)
			}
		}
	}
}

// checkAppendAssign flags `dst = append(src, ...)` where dst and src differ:
// that grows a fresh backing array. dst = append(dst, ...) and the reset
// idiom dst = append(dst[:0], ...) amortize to zero and are allowed.
func (c *NoAlloc) checkAppendAssign(p *Pass, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || !isBuiltin(p, id) {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		src := call.Args[0]
		// Unwrap the x[:0] reuse idiom down to x.
		if sl, ok := src.(*ast.SliceExpr); ok {
			src = sl.X
		}
		if types.ExprString(as.Lhs[i]) != types.ExprString(src) {
			p.Report(call.Pos(), "append into a different slice than its source allocates a fresh backing array")
		}
	}
}

// isBuiltin reports whether the identifier resolves to a Go builtin (and not
// a shadowing local).
func isBuiltin(p *Pass, id *ast.Ident) bool {
	_, ok := p.Info.Uses[id].(*types.Builtin)
	return ok
}

// capturesVariables reports whether a function literal references any
// identifier declared outside itself (forcing a closure allocation).
func capturesVariables(p *Pass, fl *ast.FuncLit) bool {
	captured := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if obj.Parent() == nil {
			// Struct fields etc. — not closed-over variables.
			return true
		}
		if obj.Pos() < fl.Pos() || obj.Pos() > fl.End() {
			// Declared outside the literal: package-level vars don't force
			// an allocation, locals do.
			if obj.Parent() != p.Pkg.Scope() {
				captured = true
			}
		}
		return true
	})
	return captured
}
