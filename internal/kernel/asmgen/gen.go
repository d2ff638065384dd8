package main

import (
	"bytes"
	"fmt"
	"maps"
	"regexp"
	"strconv"
	"strings"
)

// A gen writes one assembly file. While it emits a routine, z says which
// instruction set the routine binds: AVX-512 (vector registers V0–V31 as
// Z0–Z31, opmasks, broadcast memory operands) or AVX2+FMA (V0–V15 as
// Y0–Y15, masks in vectors, every constant a whole ymm in memory); w is the
// vector width in bytes.
type gen struct {
	bytes.Buffer
	z   bool
	w   int
	env map[string]any // the routine's bindings (let)
}

// newFile starts a file generated from the description in asmgen/src.
func newFile(src, doc string) *gen {
	g := &gen{env: map[string]any{}}
	fmt.Fprintf(g, "// Code generated by asmgen from asmgen/%s (go generate); DO NOT EDIT.\n\n//go:build !purego\n\n#include \"textflag.h\"\n\n%s", src, doc)
	return g
}

// both runs emit for AVX-512, then for AVX2.
func (g *gen) both(emit func()) {
	for _, z := range []bool{true, false} {
		g.z, g.w = z, map[bool]int{true: 64, false: 32}[z]
		emit()
	}
}

// text starts routine name, suffixed AVX512 or AVX2, with its Go signature
// sig and args bytes of arguments. It clears the bindings but the
// instruction set's: the tags 512 and 256, {BCST} — ".BCST" on AVX-512, so
// that an op on a memory constant broadcasts one element there and reads a
// whole ymm on AVX2 — and {Wn}, n vectors' width in bytes.
func (g *gen) text(name, sig string, args int) {
	name += map[bool]string{true: "AVX512", false: "AVX2"}[g.z]
	g.env = map[string]any{"512": g.z, "256": !g.z, "BCST": map[bool]string{true: ".BCST"}[g.z]}
	for n := 1; n <= 6; n++ {
		g.env["W"+strconv.Itoa(n)] = n * g.w
	}
	fmt.Fprintf(g, "\n// func %s%s\nTEXT ·%s(SB), NOSPLIT, $0-%d\n", name, sig, name, args)
}

// let binds names for the rest of the routine: kv alternates name, value.
func (g *gen) let(kv ...any) {
	for i := 0; i < len(kv); i += 2 {
		g.env[kv[i].(string)] = kv[i+1]
	}
}

var (
	vreg = regexp.MustCompile(`\bV([0-9]+)\b`)
	name = regexp.MustCompile(`\{([A-Za-z0-9]+)\}`)
)

// asm emits lines of assembly, one instruction or label a line, with kv
// (name, value pairs) bound for the call. A line tagged "512:" or "256:"
// is emitted only for that instruction set, one tagged with names bound to
// booleans ("f32 256:") only where they all hold. {N} is replaced by N's
// value; then every vector register Vn becomes Zn or Yn.
func (g *gen) asm(text string, kv ...any) {
	defer func(env map[string]any) { g.env = env }(maps.Clone(g.env))
	g.let(kv...)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if tags, rest, ok := strings.Cut(line, ":"); ok {
			if on, tagged := g.on(tags); tagged {
				if !on {
					continue
				}
				line = strings.TrimSpace(rest)
			}
		}
		for name.MatchString(line) { // a value may name another binding
			line = name.ReplaceAllStringFunc(line, func(k string) string {
				v, ok := g.env[k[1:len(k)-1]]
				if !ok {
					panic("asmgen: nothing bound to " + k)
				}
				return fmt.Sprint(v)
			})
		}
		line = vreg.ReplaceAllString(line, map[bool]string{true: "Z", false: "Y"}[g.z]+"$1")
		op, args, _ := strings.Cut(line, " ")
		switch {
		case line == "":
		case strings.HasSuffix(op, ":"):
			fmt.Fprintf(g, "\n%s\n", line)
		case args == "":
			fmt.Fprintf(g, "\t%s\n", op)
		default:
			fmt.Fprintf(g, "\t%-12s %s\n", op, strings.TrimSpace(args))
		}
	}
}

// on reports whether a line's tags all hold; tagged is false where the
// text before the colon is not tags (512, 256 and names bound to booleans)
// but a label.
func (g *gen) on(tags string) (on, tagged bool) {
	on = true
	for _, t := range strings.Fields(tags) {
		b, ok := g.env[t].(bool)
		if !ok {
			return false, false
		}
		on = on && b
	}
	return on, true
}

// table emits the read-only table name, each word rep times, 8 bytes a
// DATA line, and #defines names[i] as word i's offset.
func (g *gen) table(name string, rep int, names []string, words ...uint64) {
	for i, n := range names {
		fmt.Fprintf(g, "#define %s %d\n", n, 8*rep*i)
	}
	for i, w := range words {
		for j := range rep {
			fmt.Fprintf(g, "DATA %s<>+%d(SB)/8, $0x%016x\n", name, 8*(rep*i+j), w)
		}
	}
	fmt.Fprintf(g, "GLOBL %s<>(SB), RODATA|NOPTR, $%d\n\n", name, 8*rep*len(words))
}

// v names vector register n.
func v(n int) string { return "V" + strconv.Itoa(n) }
