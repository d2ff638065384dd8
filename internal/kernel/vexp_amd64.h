// The vector exponential of the Yukawa loops (p2p_amd64.s, point_amd64.s):
// e^t = 2^k·e^f with k = round(t·log₂e), f = t − k·ln2 (Cody–Waite, by FMA)
// and a degree-13 Taylor polynomial for e^f on |f| ≤ ln2/2. Each assembly
// file that includes this header gets its own copy of the table.

// yukconst: every constant four times over, so the AVX2 loop can take it as
// a ymm memory operand and the AVX-512 loop as a broadcast.
#define YK_CLAMP 0
#define YK_LOG2E 32
#define YK_LN2HI 64
#define YK_LN2LO 96
#define YK_MAGIC 128
#define YK_C0    160
#define YK_C1    192
#define YK_C2    224
#define YK_C3    256
#define YK_C4    288
#define YK_C5    320
#define YK_C6    352
#define YK_C7    384
#define YK_C8    416
#define YK_C9    448
#define YK_C10   480
#define YK_C11   512
#define YK_C12   544
#define YK_C13   576

#define YKCONST(off, bits) \
	DATA yukconst<>+off(SB)/8, bits    \
	DATA yukconst<>+off+8(SB)/8, bits  \
	DATA yukconst<>+off+16(SB)/8, bits \
	DATA yukconst<>+off+24(SB)/8, bits

YKCONST(YK_CLAMP, $0xc087500000000000) // -746: e^-746 rounds to 0
YKCONST(YK_LOG2E, $0x3ff71547652b82fe) // log₂e
YKCONST(YK_LN2HI, $0x3fe62e42fee00000) // ln2, high part (math.Exp's)
YKCONST(YK_LN2LO, $0x3dea39ef35793c76) // ln2, low part
YKCONST(YK_MAGIC, $0x43300000000003ff) // 2^52 + 1023: k + magic holds k + 1023 in its low bits
YKCONST(YK_C0, $0x3ff0000000000000)    // 1/n!, n = 0…13
YKCONST(YK_C1, $0x3ff0000000000000)
YKCONST(YK_C2, $0x3fe0000000000000)
YKCONST(YK_C3, $0x3fc5555555555555)
YKCONST(YK_C4, $0x3fa5555555555555)
YKCONST(YK_C5, $0x3f81111111111111)
YKCONST(YK_C6, $0x3f56c16c16c16c17)
YKCONST(YK_C7, $0x3f2a01a01a01a01a)
YKCONST(YK_C8, $0x3efa01a01a01a01a)
YKCONST(YK_C9, $0x3ec71de3a556c734)
YKCONST(YK_C10, $0x3e927e4fb7789f5c)
YKCONST(YK_C11, $0x3e5ae64567f544e4)
YKCONST(YK_C12, $0x3e21eed8eff8d898)
YKCONST(YK_C13, $0x3de6124613a86d09)
GLOBL yukconst<>(SB), RODATA|NOPTR, $608

// P = Σ f^n/n! by Horner, f in F.
#define EXPPOLY512(F, P) \
	VBROADCASTSD      yukconst<>+YK_C13(SB), P \
	VFMADD213PD.BCST  yukconst<>+YK_C12(SB), F, P \
	VFMADD213PD.BCST  yukconst<>+YK_C11(SB), F, P \
	VFMADD213PD.BCST  yukconst<>+YK_C10(SB), F, P \
	VFMADD213PD.BCST  yukconst<>+YK_C9(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C8(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C7(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C6(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C5(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C4(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C3(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C2(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C1(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C0(SB), F, P

// P = Σ f^n/n! by Horner, f in F; the coefficients as ymm memory operands.
#define EXPPOLY256(F, P) \
	VMOVUPD      yukconst<>+YK_C13(SB), P \
	VFMADD213PD  yukconst<>+YK_C12(SB), F, P \
	VFMADD213PD  yukconst<>+YK_C11(SB), F, P \
	VFMADD213PD  yukconst<>+YK_C10(SB), F, P \
	VFMADD213PD  yukconst<>+YK_C9(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C8(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C7(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C6(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C5(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C4(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C3(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C2(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C1(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C0(SB), F, P

// P = e^T for T in a zmm (clobbered: left holding f), K = k; 2^k by
// VSCALEFPD, which rounds once into the subnormals.
#define EXP512(T, K, P) \
	VMULPD.BCST       yukconst<>+YK_LOG2E(SB), T, K \
	VRNDSCALEPD       $0, K, K                      \
	VFNMADD231PD.BCST yukconst<>+YK_LN2HI(SB), K, T \
	VFNMADD231PD.BCST yukconst<>+YK_LN2LO(SB), K, T \
	EXPPOLY512(T, P)                                \
	VSCALEFPD         K, P, P

// The same in a ymm without VSCALEFPD, S scratch: 2^k is two factors
// 2^⌊k/2⌋·2^⌈k/2⌉ (the halving multiplies by 1/2!), each an integer placed
// in an exponent field by the magic add and a shift (k ≥ -1077 halves to
// normal powers of two), so the product rounds once into the subnormals.
#define EXP256(T, K, P, S) \
	VMULPD       yukconst<>+YK_LOG2E(SB), T, K \
	VROUNDPD     $0, K, K                      \
	VFNMADD231PD yukconst<>+YK_LN2HI(SB), K, T \
	VFNMADD231PD yukconst<>+YK_LN2LO(SB), K, T \
	EXPPOLY256(T, P)                           \
	VMULPD       yukconst<>+YK_C2(SB), K, S    \
	VROUNDPD     $1, S, S                      \
	VSUBPD       S, K, K                       \
	VADDPD       yukconst<>+YK_MAGIC(SB), S, S \
	VADDPD       yukconst<>+YK_MAGIC(SB), K, K \
	VPSLLQ       $52, S, S                     \
	VPSLLQ       $52, K, K                     \
	VMULPD       S, P, P                       \
	VMULPD       K, P, P
