// Package analysis is a stdlib-only static-analysis framework for this
// repository's concurrency and determinism invariants, plus the checker
// suite behind cmd/dashmm-lint.
//
// The AMT runtime's correctness rests on hand-written contracts — "this
// field is only touched under that mutex", "this counter is only accessed
// through sync/atomic", "this hot path must not allocate", "this package
// must stay deterministic" — that reviews enforced by vigilance. The
// checkers here enforce them mechanically. Everything is built on go/ast,
// go/parser, go/types and go/token; no golang.org/x/tools dependency.
//
// Contracts are declared in source with three annotations (see DESIGN.md,
// "Invariant catalog"):
//
//	// guarded by mu            on a struct field: only touch under <mu>
//	// guarded by Type.mu       same, with the mutex on another struct
//	//dashmm:locked Type.mu — reason
//	                            on a func: caller/callee holds the mutex
//	//dashmm:noalloc            on a func: hot path, no allocation idioms
//	//dashmm:detached reason    on a func with a go statement that has no
//	                            lexical teardown (fire-and-forget)
//
// False positives are silenced per line with
//
//	//lint:ignore <check>[,<check>...] reason
//
// on the flagged line or the line above it. The reason is mandatory: an
// unexplained suppression is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position. Detail, when
// set, carries the multi-line supporting evidence — an acquisition chain
// for lockorder, the field-by-field wire layout for wireproto — that is
// too long for the one-line Message but belongs in -json output.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
	Detail  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one checker. Run inspects the package in the Pass and reports
// findings through Pass.Report; the driver handles suppression, sorting and
// rendering.
type Analyzer interface {
	// Name is the short identifier used in output and //lint:ignore.
	Name() string
	// Doc is a one-line description.
	Doc() string
	// Run analyzes one type-checked package.
	Run(p *Pass)
}

// Finisher is an optional Analyzer extension for interprocedural checkers:
// Run accumulates per-package facts, and after every pass has been visited
// the driver calls Finish once for the cross-package findings (which are
// still subject to //lint:ignore suppression, keyed by Diagnostic.Check).
type Finisher interface {
	Analyzer
	Finish() []Diagnostic
}

// Pass is one type-checked package presented to an Analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the package's import path ("repro/internal/amt").
	Path string

	current Analyzer
	diags   []Diagnostic
}

// Report records a finding of the running analyzer at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Check:   p.current.Name(),
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the passes, drops suppressed diagnostics,
// and returns the rest sorted by position. Malformed suppression comments
// are reported as diagnostics of the pseudo-check "lint".
func Run(passes []*Pass, analyzers []Analyzer) []Diagnostic {
	// The suppression table is merged across passes (it is keyed by
	// filename, so entries cannot leak between packages) because Finisher
	// analyzers report after every pass has run, possibly into files of
	// any earlier pass.
	sup := newSuppressions()
	var out []Diagnostic
	for _, p := range passes {
		out = append(out, sup.collect(p.Fset, p.Files)...)
	}
	for _, p := range passes {
		for _, a := range analyzers {
			p.current = a
			p.diags = p.diags[:0]
			a.Run(p)
			for _, d := range p.diags {
				if !sup.suppressed(a.Name(), d.Pos) {
					out = append(out, d)
				}
			}
		}
		p.current = nil
	}
	for _, a := range analyzers {
		f, ok := a.(Finisher)
		if !ok {
			continue
		}
		for _, d := range f.Finish() {
			if !sup.suppressed(d.Check, d.Pos) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// DefaultAnalyzers returns the full checker suite in its canonical order.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewLockGuard(),
		NewAtomicField(),
		NewDeterminism(),
		NewGoroutine(),
		NewLockOrder(),
		NewWireProto(),
	}
}

// ---- shared annotation helpers ----

// commentHasDirective reports whether the comment group contains the given
// directive (e.g. "dashmm:noalloc") and returns the rest of its line. Only
// the strict Go directive form matches — `//dashmm:...` with no space after
// the slashes — so prose that merely mentions a directive does not.
func commentHasDirective(cg *ast.CommentGroup, directive string) (rest string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text, found := strings.CutPrefix(c.Text, "//"+directive)
		if !found {
			continue
		}
		if text == "" {
			return "", true
		}
		if strings.HasPrefix(text, " ") {
			return strings.TrimSpace(text), true
		}
	}
	return "", false
}

// funcHasDirective checks a function's doc comment for a //dashmm:...
// directive.
func funcHasDirective(fn *ast.FuncDecl, directive string) (rest string, ok bool) {
	return commentHasDirective(fn.Doc, directive)
}

// namedOf unwraps pointers and returns the named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// isMutexType reports whether t (after unwrapping pointers) is sync.Mutex
// or sync.RWMutex.
func isMutexType(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// structFieldByName returns the field named name of struct type st, or nil.
func structFieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// lookupNamed resolves a type name in the package scope to its named type
// with struct underlying, or nil.
func lookupNamed(pkg *types.Package, name string) (*types.Named, *types.Struct) {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil, nil
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return named, nil
	}
	return named, st
}

// sameNamed reports whether two types refer to the same named type after
// unwrapping pointers.
func sameNamed(a, b types.Type) bool {
	na, nb := namedOf(a), namedOf(b)
	return na != nil && nb != nil && na.Obj() == nb.Obj()
}

// walkFuncs visits every top-level function declaration with a body.
func walkFuncs(p *Pass, visit func(file *ast.File, fn *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			visit(f, fn)
		}
	}
}

// recvNamed returns the named type of a method's receiver, or nil for plain
// functions.
func recvNamed(p *Pass, fn *ast.FuncDecl) *types.Named {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	tv, ok := p.Info.Types[fn.Recv.List[0].Type]
	if !ok {
		return nil
	}
	return namedOf(tv.Type)
}
