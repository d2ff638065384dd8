package analysis

import (
	"go/ast"
	"go/types"
	"path"
	"path/filepath"
	"strings"
)

// Determinism keeps the numeric core reproducible: packages on its list may
// not read wall-clock time, may not draw from the global math/rand source,
// and may not iterate a map to produce ordered output. Identical inputs must
// yield bit-identical expansions, or the paper's accuracy comparisons (and
// the repo's golden-file tests) stop meaning anything.
//
// Flagged in a listed package:
//
//   - time.Now / time.Since / time.Until calls (wall clock);
//   - calls to math/rand package-level functions other than New/NewSource —
//     the process-global source is seeded per-process, so results vary run
//     to run. Explicitly-seeded rand.New(rand.NewSource(seed)) is fine;
//   - `for ... := range m` over a map type: Go randomizes map iteration
//     order, so any output built from it is nondeterministic. Iterations
//     that provably commute can be suppressed with //lint:ignore.
type Determinism struct {
	// Packages lists the import-path suffixes the checker applies to. An
	// entry ending in ".go" names one file of its package: the rest of that
	// package may read the clock, the named file may not.
	Packages []string
}

// NewDeterminism returns the determinism analyzer with the default package
// list: the numeric core, plus tree construction and DAG derivation — the
// ROADMAP's incremental-repair work diffs Morton orders and DAG regions
// between time steps, which only means anything if both are reproducible —
// plus the two files outside them that decide a plan's leaf size (the cost
// sum and the tuner): SPMD ranks, the plan cache and the plan store all
// assume equal inputs give equal trees.
func NewDeterminism() *Determinism {
	return &Determinism{Packages: []string{
		"internal/points",
		"internal/kernel",
		"internal/sphharm",
		"internal/geom",
		"internal/tree",
		"internal/dag",
		"internal/sim/cost.go",
		"internal/core/tune.go",
	}}
}

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (*Determinism) Doc() string {
	return "numeric-core packages may not use wall clock, global math/rand, or map iteration order"
}

// files returns the files of the pass the checker's list covers.
func (c *Determinism) files(p *Pass) []*ast.File {
	var out []*ast.File
	for _, entry := range c.Packages {
		pkg, file := entry, ""
		if strings.HasSuffix(entry, ".go") {
			pkg, file = path.Split(entry)
			pkg = strings.TrimSuffix(pkg, "/")
		}
		if p.Path != pkg && !strings.HasSuffix(p.Path, "/"+pkg) {
			continue
		}
		if file == "" {
			return p.Files
		}
		for _, f := range p.Files {
			if filepath.Base(p.Fset.Position(f.Pos()).Filename) == file {
				out = append(out, f)
			}
		}
	}
	return out
}

// randAllowed are the math/rand package-level functions that don't touch the
// global source.
var randAllowed = map[string]bool{"New": true, "NewSource": true}

// Run implements Analyzer.
func (c *Determinism) Run(p *Pass) {
	for _, f := range c.files(p) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				pkgPath, name, ok := packageLevelCall(p, node)
				if !ok {
					return true
				}
				switch pkgPath {
				case "time":
					switch name {
					case "Now", "Since", "Until":
						p.Report(node.Pos(),
							"time.%s reads the wall clock; deterministic packages must take time as a parameter",
							name)
					}
				case "math/rand", "math/rand/v2":
					if !randAllowed[name] {
						p.Report(node.Pos(),
							"rand.%s uses the process-global random source; use an explicitly seeded rand.New(rand.NewSource(seed))",
							name)
					}
				}
			case *ast.RangeStmt:
				tv, ok := p.Info.Types[node.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					p.Report(node.Pos(),
						"map iteration order is randomized; collect and sort keys before producing ordered output")
				}
			}
			return true
		})
	}
}

// packageLevelCall resolves a call of the form pkg.Fn(...) to its package
// path and function name.
func packageLevelCall(p *Pass, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
