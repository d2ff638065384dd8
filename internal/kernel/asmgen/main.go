// Command asmgen writes the kernel's vector assembly from one description
// per loop, each bound once to AVX-512 and once to AVX2+FMA: the pair
// loops (p2p_amd64.s, from p2p.go here) and the point block's passes
// (point_amd64.s, from point.go). It runs from planewave.go's second
// go:generate line:
//
//	go generate ./internal/kernel
//
// The generated files are ordinary Go assembly, so go vet's asmdecl checks
// every argument reference in them; TestGeneratedAssemblyIsCheckedIn fails
// when a checked-in file differs from what asmgen makes. The dense kernel
// (dense_amd64.s) and the CPU probe (p2p_cpuid_amd64.s) are written by hand.
package main

import (
	"log"
	"os"
)

// files maps each generated file's name to its contents.
func files() map[string][]byte {
	return map[string][]byte{"p2p_amd64.s": p2pFile(), "point_amd64.s": pointFile()}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("asmgen: ")
	for name, src := range files() {
		if err := os.WriteFile(name, src, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
