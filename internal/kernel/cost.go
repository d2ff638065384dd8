package kernel

import "math"

// Operator pricing: what one application of each operator costs, from the
// kernel's own sizes. This is the one cost table of the repository — the
// leaf-size tuner (core.NewPlan), the daemon's admission check and the
// printed ladder of dashmm-bench all read it through sim.KernelModel — and
// it is a pure function of the kernel, the pair loop and dense kernel it
// bound included: no clock, no micro-benchmark. When an expansion shrinks
// (fewer coefficients per M/L, a compacter plane-wave rule) or grows (more
// digits), MLSize and ISize move and every price, and with it the chosen
// tree, moves by itself.

// The machine constants: nanoseconds per elementary step on the reference
// box (2-vCPU Xeon 2.1 GHz guest, go1.24), measured in situ — per-class busy
// time of a traced warm evaluation divided by the class's steps in the DAG,
// the Table II methodology of sim.Calibrate — on cube N=16k Laplace/Advanced
// at leaf levels 2–3 and sphere N=100k Yukawa/Basic at threshold 240. They
// sit between the box's quiet and slow modes (the dense rows move 1.5x
// between the two, the Laplace pair 1.1x). Regenerate with
//
//	go run ./cmd/scaling -model calibrate -n 16000 -threshold 0 -max-cores 32
//
// which prints the calibrated price of every operator class beside the one
// this table predicts.
const (
	// One tabulated I→I shift factor of a kept wave term: load, complex
	// multiply, accumulate.
	nsShiftTerm = 3.0
)

// The point and dense operators by the dense kernel the process bound
// (point.go, dense.go) — per coefficient of a point, per entry of a
// real-linear table (four real multiply-adds) — so the price follows the
// binding as the pair price does. The portable rows are the
// in-situ constants of the scalar loops; each vector row is its portable
// row divided by the speedup its class showed in situ — traced busy seconds
// of the portable binding over the vector one (for the dense rows four
// alternating rounds of cube N=16k Laplace/Advanced at threshold 60 and
// sphere N=100k Yukawa/Basic at threshold 240, the box in its slow mode).
var (
	// One source point folded into, or one target point evaluated from, one
	// stored (m >= 0) M/L coefficient (S→M, S→L, M→T, L→T), by the point
	// block of the same binding (point.go): its share of the Cartesian
	// Y_n^m recurrence and the radial functions, and one real-by-complex
	// multiply-add. The portable row is the scalar loop's in-situ constant
	// (Laplace and Yukawa read 4.5 and 4.6 in the quiet mode, so one row
	// serves both); the vector blocks ran the four classes 4.1–5.7x (AVX2)
	// and 4.8–7.6x (AVX-512) faster in situ, three alternating rounds of
	// sphere N=100k Yukawa/Basic at threshold 240 and cube N=16k
	// Laplace/Advanced (S→M only: there a leaf's L→T waits behind its near
	// field).
	nsPointTerm = [...]float64{denseGo: 5.5, denseAVX2: 1.2, denseAVX512: 1.0}
	// One entry applied once per application (M→M, L→L, unbatched M→L): the
	// 97 KB table comes from L2 or beyond; in situ the vector kernels run
	// M→M and L→L 2.3x (AVX2) and 2.6x (AVX-512) faster than the scalar
	// loop.
	nsDenseMAC = [...]float64{denseGo: 2.7, denseAVX2: 1.2, denseAVX512: 1.0}
	// The same inside the blocked multi-RHS M→L, where the table stays in L2
	// across a block of right-hand sides and a tile of four shares each
	// table load: 3.2x and 3.7x in situ when two shared it, and the tile
	// (dense.go) reads 0.82–1.0 of these prices on sphere N=100k
	// Yukawa/Basic (AVX2 and AVX-512), inside ±30 %.
	nsBatchMAC = [...]float64{denseGo: 1.4, denseAVX2: 0.44, denseAVX512: 0.38}
	// The same in M→I and I→L, whose tables are per (direction, level):
	// 2·ISize·MLSize entries, 0.47 MB at three digits (0.84 MB, 477-term
	// waves, when these rows were measured). The executor applies each to
	// the boxes of a level in blocks of up to 16 right-hand sides
	// (core/batch.go), so a table streams from beyond L2 once per block,
	// not once per box as in the per-edge apply. In situ on cube N=16k
	// Laplace/Advanced, two alternating rounds per binding, M→I and I→L
	// ran at 0.6–0.7 and 0.5–0.55 of the per-edge price on AVX-512, 0.73
	// and 0.6 on AVX2, 0.9 and 0.6 on the portable loops, whose apply is
	// compute-bound and had less traffic to save. The register tile
	// (dense.go) then ran them 1.5–2.2x (AVX-512) and 1.1–1.7x (AVX2)
	// faster than the old AVX rows priced, at threshold 480 and 240; the
	// vector rows are re-set to the middle of those ratios, each class at
	// both levels within ±30 %. Every placement runs the two classes
	// batched, a rank its share of each batch (core/batch.go).
	nsWaveMAC = [...]float64{denseGo: 1.6, denseAVX2: 0.50, denseAVX512: 0.33}
)

// pairNanos is the price of one source–target pair of the near field by the
// pair loop the kernel bound (p2p.go), so the price follows the binding and
// with it the order: for 1/r a scalar square root and divide, the same four
// lanes at a time, or eight lanes of rsqrt estimate and two Newton steps;
// for e^{-λr}/r a scalar math.Exp, or a polynomial exponential four lanes
// at a time with an exact divide or eight with a Newton reciprocal; and at
// p ≤ pF32 in float32, eight or sixteen lanes of rsqrt estimate and one
// Newton step (for Yukawa also a degree-6 exponential), the sources narrowed
// once per block. The float64 Yukawa prices are in situ on sphere N=100k
// Yukawa/Basic at threshold 240. Each float32 row is its float64 twin's
// divided by the speedup S→T showed in situ, traced busy seconds of the
// twin over the float32 loop in alternating runs (dashmm-bench -real, the
// parent build against this one, the probe forced to AVX2 in both for the
// AVX2 rows): Laplace on cube N=16k Laplace/Advanced at threshold 480, 2.0–2.6
// on AVX-512 (six pairs), 4.9–5.5 on AVX2 (three pairs); Yukawa on sphere
// N=100k Yukawa/Basic at threshold 240, 2.0–3.2 on AVX-512 (median 2.6,
// eleven pairs across the box's quiet and slow modes), 2.6–3.5 on AVX2
// (median 3.1, six pairs). Price charges a Yukawa float32 row only where
// the driver runs that loop (pairAt).
var pairNanos = [...]float64{
	laplaceGo: 3.8, laplaceAVX2: 1.9, laplaceAVX512: 0.6,
	laplaceF32AVX2: 0.36, laplaceF32AVX512: 0.27,
	yukawaGo: 12.7, yukawaAVX2: 2.5, yukawaAVX512: 1.6,
	yukawaF32AVX2: 0.81, yukawaF32AVX512: 0.62,
}

// PairPrices lists the price of every pair loop of k's kernel, portable
// (dearest) first and the float32 loops last, whichever one this process
// bound: the tuner's decisions are tested at each. A kernel that is not
// built in gets Laplace's list.
func PairPrices(k Kernel) []float64 {
	if b, ok := k.(*base); ok && b.pair >= yukawaGo {
		return append([]float64(nil), pairNanos[yukawaGo:]...)
	}
	return append([]float64(nil), pairNanos[:yukawaGo]...)
}

// OpNanos is a kernel's price list in nanoseconds: per pair, per point or
// per application as noted. The three plane-wave prices are per direction
// and depend on the tree level the list was asked for (ISize does, for the
// scale-variant Yukawa kernel).
type OpNanos struct {
	S2T           float64 // per source–target pair
	S2M, S2L      float64 // per source point
	M2T, L2T      float64 // per target point
	M2M, M2L, L2L float64 // per application
	M2I, I2I, I2L float64 // per direction, on a wave of the priced level
}

// PairNanos implements Kernel.
func (b *base) PairNanos() float64 { return pairNanos[b.pair] }

// pairAt is the pair loop a price assumes for targets in a box of the given
// side: the loop b bound, or for a Yukawa float32 loop where λ·side exceeds
// lambda32Max its float64 twin. A block's λ′ is at most twice λ times its
// targets' half-extent (narrow32), at most λ·side, so a box within the
// bound runs every block in float32; beyond it the driver runs the twin on
// some or all of its blocks, and the price takes the dearer loop.
func (b *base) pairAt(side float64) pairLoop {
	if b.lambda*side > lambda32Max {
		return b.pair.wide()
	}
	return b.pair
}

// Price returns what the kernel charges for its operators at a tree level,
// S→T for targets in a box of that level (pairAt). The kernel must be
// prepared at least that deep (ISize reads the level's plane-wave rule, and
// a box's side is RootSide/2^level).
func Price(k Kernel, level int) OpNanos {
	dense := denseGo
	s2t := k.PairNanos()
	if b, ok := k.(*base); ok {
		dense = bestDense // what DenseKernel reports: a wrapped kernel is priced portable
		s2t = pairNanos[b.pairAt(math.Ldexp(b.RootSide(), -level))]
	}
	ml := float64(k.MLSize())
	wave := float64(k.ISize(level))
	return OpNanos{
		S2T: s2t,
		S2M: nsPointTerm[dense] * ml,
		S2L: nsPointTerm[dense] * ml,
		M2T: nsPointTerm[dense] * ml,
		L2T: nsPointTerm[dense] * ml,
		M2M: nsDenseMAC[dense] * ml * ml,
		M2L: nsBatchMAC[dense] * ml * ml, // every offset at order p, though a far one's table is a smaller block (m2lOrder)
		L2L: nsDenseMAC[dense] * ml * ml,
		M2I: nsWaveMAC[dense] * wave * ml,
		I2I: nsShiftTerm * wave,
		I2L: nsWaveMAC[dense] * wave * ml,
	}
}
