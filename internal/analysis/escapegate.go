package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// RunEscapeGate verifies //dashmm:noalloc against the compiler: it shells
// out to `go build -gcflags=-m`, parses the escape diagnostics the gc
// compiler emits (the build cache replays them on cached builds, so repeated
// runs stay cheap), and reports every "escapes to heap" or "moved to heap"
// decision that lands inside a //dashmm:noalloc-annotated function. If the
// compiler proves an allocation, the annotation is violated no matter how
// idiomatic the code looks.
//
// dir is the module directory to run the go tool in; patterns are package
// patterns ("./..."). Findings use check name "escape-gate" and respect the
// strict //lint:ignore escape-gate form on the flagged line or the line
// above. The returned diagnostics include malformed-suppression reports
// (pseudo-check "lint"), mirroring the analyzer driver.
func RunEscapeGate(dir string, patterns []string) ([]Diagnostic, error) {
	l := NewLoader(dir)
	out, err := l.goList(append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	pkgs, err := decodeListedPkgs(out)
	if err != nil {
		return nil, err
	}

	// Parse every file of every listed package, collect the annotated
	// function ranges and the //lint:ignore table.
	type noallocFn struct {
		file       string
		start, end int
		name       string
	}
	fset := token.NewFileSet()
	sup := newSuppressions()
	var diags []Diagnostic
	var fns []noallocFn
	annotated := map[string]bool{} // import paths that need -gcflags=-m
	for _, pkg := range pkgs {
		var files []*ast.File
		for _, gf := range pkg.GoFiles {
			path := filepath.Join(pkg.Dir, gf)
			af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", path, err)
			}
			files = append(files, af)
			for _, decl := range af.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if _, ok := funcHasDirective(fd, "dashmm:noalloc"); !ok {
					continue
				}
				fns = append(fns, noallocFn{
					file:  path,
					start: fset.Position(fd.Pos()).Line,
					end:   fset.Position(fd.End()).Line,
					name:  funcName(fd),
				})
				annotated[pkg.ImportPath] = true
			}
		}
		diags = append(diags, sup.collect(fset, files)...)
	}
	if len(fns) == 0 {
		return diags, nil
	}

	var buildPkgs []string
	for p := range annotated {
		buildPkgs = append(buildPkgs, p)
	}
	sort.Strings(buildPkgs)

	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, buildPkgs...)...)
	cmd.Dir = dir
	raw, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, raw)
	}
	lines := strings.Split(string(raw), "\n")

	// The compiler always has something to say under -m for packages of
	// this size; a totally silent run means the diagnostics were lost
	// (e.g. a cache layer that strips replayed output) and the gate must
	// not pretend it proved anything.
	sawAny := false
	diagRe := regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)
	for _, line := range lines {
		m := diagRe.FindStringSubmatch(strings.TrimPrefix(line, "# "))
		if m == nil {
			continue
		}
		sawAny = true
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		var lineNo, col int
		fmt.Sscanf(m[2], "%d", &lineNo)
		fmt.Sscanf(m[3], "%d", &col)
		for _, fn := range fns {
			if fn.file != file || lineNo < fn.start || lineNo > fn.end {
				continue
			}
			pos := token.Position{Filename: file, Line: lineNo, Column: col}
			if sup.suppressed("escape-gate", pos) {
				break
			}
			diags = append(diags, Diagnostic{
				Check:   "escape-gate",
				Pos:     pos,
				Message: fmt.Sprintf("heap escape in //dashmm:noalloc %s: %s", fn.name, msg),
			})
			break
		}
	}
	if !sawAny {
		return nil, fmt.Errorf("go build -gcflags=-m produced no compiler diagnostics for %s; cannot prove the noalloc contract", strings.Join(buildPkgs, " "))
	}
	sortDiagnostics(diags)
	return diags, nil
}

// decodeListedPkgs parses the stream of go list -json objects.
func decodeListedPkgs(out []byte) ([]listedPkg, error) {
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// sortDiagnostics orders diagnostics by position, matching the driver.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
