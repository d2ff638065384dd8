package kernel

import "repro/internal/geom"

// Batched kernel execution (DESIGN.md, "Batched execution"): the far field
// applies a small set of dense tables across many edges per level, and a
// per-edge apply reads its table from L2 or beyond once per edge. Grouping
// the edges that share one table into a multi-RHS apply reads it once per
// pair of right-hand sides instead (dense.go: both bindings share each table
// load between two). For the list-2 M->L, whose 97 KB table is per (side,
// lattice offset), per right-hand side in a block of 16 against one alone:
// 1.5 against 1.8 µs on the AVX-512 kernel, 1.9 against 2.2 on AVX2, 6.4
// against 7.9 on the portable loops. For M->I and I->L, whose tables (0.47
// MB at three digits) are per (direction, level) and otherwise stream from
// beyond L2 on every application, the block is where most of the gain is:
// BenchmarkDense's m2i_batch16 and i2l_batch16 against m2i_streamed and
// i2l_streamed.

// M2LOffset is the integer lattice offset (to - from) / side of a list-2
// M->L translation. Together with the box side it identifies one cached
// dense operator.
type M2LOffset struct {
	DX, DY, DZ int8
}

// Scale returns the world-frame translation vector of the offset for boxes
// of the given side.
func (o M2LOffset) Scale(side float64) geom.Point {
	return geom.Point{X: float64(o.DX) * side, Y: float64(o.DY) * side, Z: float64(o.DZ) * side}
}

// BatchKernel is the batched execution part of Kernel: lattice
// classification for plan-build-time batching, the blocked multi-RHS M->L,
// M->I and I->L applies, and the tiled near-field P2P (p2p.go).
type BatchKernel interface {
	// M2LOffsetOf classifies a translation against the list-2 lattice;
	// ok=false means the geometry is off it. Box centres are root-relative
	// (package tree), so no plan's list-2 edge is: dag.BuildBatches panics
	// on one, as M2L does.
	M2LOffsetOf(from, to geom.Point, side float64) (M2LOffset, bool)
	// M2LBatch applies the M->L operator of each offs[i] (boxes of side
	// `side` at tree level `level`) to ins[i], accumulating into outs[i].
	// Runs of equal consecutive offsets share one operator fetch and one
	// blocked multi-RHS apply; callers sort their batches by offset to
	// maximize run length. Every offset is on the lattice (M2LOffsetOf
	// said so), so every edge goes through a table.
	M2LBatch(offs []M2LOffset, side float64, level int, ins, outs [][]complex128)
	// M2IBatch applies the M->I table of (dir, level) to every packed M
	// expansion ins[r], accumulating into the level's half wave outs[r];
	// I2LBatch the I->L table of (dir, level) to every half wave ins[r],
	// accumulating into the packed L expansion outs[r]. One table serves
	// the block. M2I and I2L are the one-right-hand-side case.
	M2IBatch(dir geom.Direction, level int, ins, outs [][]complex128)
	I2LBatch(dir geom.Direction, level int, ins, outs [][]complex128)
	// P2P accumulates the direct interaction of the source chunks into the
	// targets, tiled for cache reuse (see p2p.go).
	P2P(chunks []P2PChunk, tpts []geom.Point, pot []float64)
}

// M2LBatch implements BatchKernel. The level parameter is diagnostic: the
// operator is fully determined by (side, offset) — the scale-variant Yukawa
// kernel varies per level only through the side, which the cache keys on.
//
//dashmm:noalloc
func (b *base) M2LBatch(offs []M2LOffset, side float64, level int, ins, outs [][]complex128) {
	for lo := 0; lo < len(offs); {
		hi := lo + 1
		for hi < len(offs) && offs[hi] == offs[lo] {
			hi++
		}
		applyTable(b.m2lTable(offs[lo], side), ins[lo:hi], outs[lo:hi])
		lo = hi
	}
}

// M2IBatch implements BatchKernel.
//
//dashmm:noalloc
func (b *base) M2IBatch(dir geom.Direction, level int, ins, outs [][]complex128) {
	applyTable(b.pw.Load().table(pwM2IKind, dir, level), ins, outs)
}

// I2LBatch implements BatchKernel.
//
//dashmm:noalloc
func (b *base) I2LBatch(dir geom.Direction, level int, ins, outs [][]complex128) {
	applyTable(b.pw.Load().table(pwI2LKind, dir, level), ins, outs)
}
