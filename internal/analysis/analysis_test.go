package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches golden markers in fixture comments: a want keyword
// followed by a double-quoted substring of the expected message.
var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// loadFixture type-checks one testdata package.
func loadFixture(t *testing.T, name string) (*Loader, *Pass) {
	t.Helper()
	l := NewLoader(".")
	pass, err := l.LoadDir(filepath.Join("testdata", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return l, pass
}

// runFixture checks an analyzer's diagnostics against the fixture's want
// markers: every marker must be hit by a diagnostic on its line whose
// message contains the quoted substring, and every diagnostic must have a
// marker. Suppressed and true-negative lines therefore fail the test if the
// analyzer fires on them.
func runFixture(t *testing.T, name string, analyzers ...Analyzer) {
	t.Helper()
	l, pass := loadFixture(t, name)
	diags := Run([]*Pass{pass}, analyzers)

	type key struct {
		file string
		line int
	}
	expected := map[key][]string{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := l.Fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					expected[k] = append(expected[k], m[1])
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		subs := expected[k]
		matched := -1
		for i, s := range subs {
			if strings.Contains(d.Message, s) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		expected[k] = append(subs[:matched], subs[matched+1:]...)
		if len(expected[k]) == 0 {
			delete(expected, k)
		}
	}
	for k, subs := range expected {
		for _, s := range subs {
			t.Errorf("%s:%d: want diagnostic containing %q, got none", k.file, k.line, s)
		}
	}
}

func TestLockGuardFixture(t *testing.T) {
	runFixture(t, "lockguard", NewLockGuard())
}

func TestAtomicFieldFixture(t *testing.T) {
	runFixture(t, "atomicfield", NewAtomicField())
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism", &Determinism{Packages: []string{"fixture/determinism"}})
}

func TestGoroutineFixture(t *testing.T) {
	runFixture(t, "goroutine", &Goroutine{Packages: []string{"fixture/goroutine"}})
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, "lockorder", &LockOrder{Packages: []string{"fixture/lockorder"}})
}

func TestWireProtoFixture(t *testing.T) {
	runFixture(t, "wireproto", NewWireProto())
}

// TestDiagnosticDetail asserts the machine-readable payloads -json exposes:
// every lockorder finding carries its acquisition chain in Detail, and
// wireproto coverage/order findings carry both sides' field layouts.
func TestDiagnosticDetail(t *testing.T) {
	_, pass := loadFixture(t, "lockorder")
	diags := Run([]*Pass{pass}, []Analyzer{&LockOrder{Packages: []string{"fixture/lockorder"}}})
	if len(diags) == 0 {
		t.Fatal("lockorder fixture produced no diagnostics")
	}
	for _, d := range diags {
		if d.Detail == "" {
			t.Errorf("lockorder diagnostic missing acquisition chain: %s", d)
		}
	}

	_, pass = loadFixture(t, "wireproto")
	diags = Run([]*Pass{pass}, []Analyzer{NewWireProto()})
	withLayout := 0
	for _, d := range diags {
		if strings.Contains(d.Detail, "encode:") && strings.Contains(d.Detail, "decode:") {
			withLayout++
		}
	}
	if withLayout == 0 {
		t.Errorf("no wireproto diagnostic carries the field-layout detail: %v", diags)
	}
}

// TestLockOrderScoping verifies the package allowlist: outside its
// configured universe the checker records nothing and stays silent.
func TestLockOrderScoping(t *testing.T) {
	_, pass := loadFixture(t, "lockorder")
	diags := Run([]*Pass{pass}, []Analyzer{NewLockOrder()})
	if len(diags) != 0 {
		t.Fatalf("lockorder fired outside its package list: %v", diags)
	}
}

// TestEscapeGate compiles the escapegate fixture in a throwaway module and
// checks the compiler-backed gate: the genuine escape is reported, the
// suppressed one is not, the clean and unannotated functions stay silent.
func TestEscapeGate(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "escapegate", "esc.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module escfixture\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "esc.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}

	diags, err := RunEscapeGate(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("RunEscapeGate: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the Leak diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "escape-gate" {
		t.Errorf("check = %q, want escape-gate", d.Check)
	}
	if !strings.Contains(d.Message, "heap escape in //dashmm:noalloc Leak") ||
		!strings.Contains(d.Message, "moved to heap") {
		t.Errorf("unexpected message: %s", d.Message)
	}
}

// TestDeterminismScoping verifies the package allowlist: the same fixture
// linted under an import path outside the configured list yields nothing.
func TestDeterminismScoping(t *testing.T) {
	_, pass := loadFixture(t, "determinism")
	diags := Run([]*Pass{pass}, []Analyzer{NewDeterminism()})
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside its package list: %v", diags)
	}
}

// TestDeterminismFileScoping verifies a ".go" entry: it covers the named
// file of its package and nothing else.
func TestDeterminismFileScoping(t *testing.T) {
	runFixture(t, "determinism", &Determinism{Packages: []string{"fixture/determinism/determinism.go"}})
	_, pass := loadFixture(t, "determinism")
	diags := Run([]*Pass{pass}, []Analyzer{&Determinism{Packages: []string{"fixture/determinism/other.go"}}})
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside the named file: %v", diags)
	}
}

// TestMalformedSuppressions asserts that //lint:ignore directives lacking a
// check list or reason surface as pseudo-check "lint" diagnostics, that they
// do not suppress anything, and that the well-formed control both stays
// silent and suppresses its diagnostic.
func TestMalformedSuppressions(t *testing.T) {
	_, pass := loadFixture(t, "suppress")
	diags := Run([]*Pass{pass}, []Analyzer{NewLockGuard()})

	var lintLines, lockguardLines []int
	for _, d := range diags {
		switch d.Check {
		case "lint":
			lintLines = append(lintLines, d.Pos.Line)
		case "lockguard":
			lockguardLines = append(lockguardLines, d.Pos.Line)
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d)
		}
	}
	if len(lintLines) != 2 {
		t.Errorf("want 2 malformed-suppression diagnostics, got %d: %v", len(lintLines), diags)
	}
	// The two malformed directives fail to suppress, so their guarded reads
	// still fire; the well-formed control's read must not.
	if len(lockguardLines) != 2 {
		t.Errorf("want 2 unsuppressed lockguard diagnostics, got %d: %v", len(lockguardLines), diags)
	}
}

// TestDiagnosticOrdering checks the driver sorts by file, line, column.
func TestDiagnosticOrdering(t *testing.T) {
	_, pass := loadFixture(t, "lockorder")
	diags := Run([]*Pass{pass}, []Analyzer{&LockOrder{Packages: []string{"fixture/lockorder"}}})
	if len(diags) < 2 {
		t.Fatalf("fixture produced %d diagnostics, want several", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", diags[i-1], diags[i])
		}
	}
}

// TestAnalyzerRegistry pins the suite: six checkers with stable names.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"lockguard", "atomicfield", "determinism", "goroutine-hygiene", "lockorder", "wireproto"}
	got := DefaultAnalyzers()
	if len(got) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name() != want[i] {
			t.Errorf("analyzer %d named %q, want %q", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %s has no doc", a.Name())
		}
	}
}
