package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every checked-in generated assembly file is, byte for byte, what the
// generator makes: a hand edit to one (or a description changed without
// `go generate ./internal/kernel`) fails here, not only in make
// generate-check.
func TestGeneratedAssemblyIsCheckedIn(t *testing.T) {
	for name, want := range files() {
		got, err := os.ReadFile(filepath.Join("..", name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) {
			continue
		}
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(g), len(w)) {
			if i >= len(g) || i >= len(w) || g[i] != w[i] {
				t.Errorf("%s differs from what asmgen makes at line %d:\n checked in: %q\n generated:  %q\n(run go generate ./internal/kernel)",
					name, i+1, at(g, i), at(w, i))
				break
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}
