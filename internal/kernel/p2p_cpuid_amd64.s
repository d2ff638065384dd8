//go:build !purego

#include "textflag.h"

// The CPU probe of the vector loops (p2p_amd64.go), by hand; the loops
// themselves are generated (asmgen). The name sorts right after
// p2p_amd64.s, so the linker places these two after the pair loops, where
// they were when one file held both: every kernel routine keeps its
// address, and so its alignment.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32): the low half of XCR0.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
