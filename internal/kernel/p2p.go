package kernel

import (
	"math"

	"repro/internal/geom"
)

// The near field (DESIGN.md, "Batched execution"): every source–target
// potential pair of the repository — P2P over the near-field lists of one
// target leaf, S2T over one edge — goes through one driver and one pair
// loop bound per kernel. The driver transposes a block of targets into a
// stack-resident structure-of-arrays, streams every source chunk through
// the kernel's pair loop against it, and adds the block's accumulators to
// the potentials.

// P2PChunk is one source block of a near-field apply: the points and
// matching charges of one source leaf.
type P2PChunk struct {
	Pts []geom.Point
	Q   []float64
}

const (
	// blockTargets is the target block size: 64 targets are 2 KB of
	// coordinates and accumulators, L1-resident while the sources stream.
	blockTargets = 64
	// blockLanes is the widest register block of any pair loop (two zmm
	// groups); blockTargets is a multiple of it.
	blockLanes = 16
)

// pairBlock is a block of targets in structure-of-arrays form with their
// accumulators. The driver fills lanes n up to the next multiple of
// blockLanes with copies of target n-1, so a vector loop may work in whole
// register blocks without reading stale coordinates, and drops those lanes'
// accumulators. The assembly loops address the fields by offset
// (p2p_amd64.s): keep the layout.
type pairBlock struct {
	n            int // targets in use
	x, y, z, acc [blockTargets]float64
}

// load transposes 1 to blockTargets targets into the block, zeroes their
// accumulators and pads the last register block.
//
//dashmm:noalloc
func (blk *pairBlock) load(tpts []geom.Point) {
	n := len(tpts)
	blk.n = n
	for i, t := range tpts {
		blk.x[i], blk.y[i], blk.z[i], blk.acc[i] = t.X, t.Y, t.Z, 0
	}
	for i := n; i%blockLanes != 0; i++ {
		blk.x[i], blk.y[i], blk.z[i], blk.acc[i] = blk.x[n-1], blk.y[n-1], blk.z[n-1], 0
	}
}

// pairLoop names the pair loop a kernel binds at construction. A pair loop
// adds to blk.acc[i], for each target i < blk.n, the sum over the sources of
// q·G(|t_i − s|) in source order; a coincident pair (r² = 0) contributes
// nothing. Lanes from blk.n up are scratch.
type pairLoop uint8

const (
	laplaceGo     pairLoop = iota // portable loop: the fallback and the oracle of the other two
	laplaceAVX2                   // p2p_amd64.s: the portable loop's operations, four lanes at a time
	laplaceAVX512                 // p2p_amd64.s: rsqrt estimate + two Newton steps, eight lanes at a time
	yukawaGo                      // portable loop: math.Exp, the oracle of the other two
	yukawaAVX2                    // p2p_amd64.s: polynomial exp and an exact divide, four lanes at a time
	yukawaAVX512                  // p2p_amd64.s: polynomial exp and a Newton reciprocal, eight lanes at a time
)

// String is the name PairKernel reports.
func (l pairLoop) String() string {
	return [...]string{"go", "avx2", "avx512", "go", "avx2", "avx512"}[l]
}

// PairKernel names the implementation of k's near-field pair loop: "avx512",
// "avx2" or "go" (the portable loop; also any kernel that is not built in).
// It is what the CPU offers, probed once per process; nothing selects it.
func PairKernel(k Kernel) string {
	if b, ok := k.(*base); ok {
		return b.pair.String()
	}
	return "go"
}

// pairs runs the bound pair loop. The dispatch (pairsOn) is a switch and
// not a function value so that the block stays on the driver's stack: an
// argument of an indirect call escapes.
//
//dashmm:noalloc
func (b *base) pairs(src []geom.Point, q []float64, blk *pairBlock) {
	pairsOn(b.pair, b.lambda, src, q[:len(src)], blk) // the assembly trusts the lengths
}

// P2P implements BatchKernel: the near-field lists of one target leaf
// applied block by block. Coincident pairs are skipped.
//
//dashmm:noalloc
func (b *base) P2P(chunks []P2PChunk, tpts []geom.Point, pot []float64) {
	var blk pairBlock
	for len(tpts) > 0 {
		n := min(len(tpts), blockTargets)
		blk.load(tpts[:n])
		for _, ch := range chunks {
			b.pairs(ch.Pts, ch.Q, &blk)
		}
		for i := range pot[:n] {
			pot[i] += blk.acc[i]
		}
		tpts, pot = tpts[n:], pot[n:]
	}
}

// S2T implements Kernel: P2P with one chunk. Coincident source/target pairs
// contribute nothing, which makes the traditional identical-ensemble N-body
// case (where each point is both a source and a target) come out right.
//
//dashmm:noalloc
func (b *base) S2T(spts []geom.Point, q []float64, tpts []geom.Point, pot []float64) {
	chunk := [1]P2PChunk{{Pts: spts, Q: q}}
	b.P2P(chunk[:], tpts, pot)
}

// laplacePairs is the portable 1/r pair loop: one square root and one
// divide per pair. The conversions forbid fusing the multiplies into the
// adds, so the loop computes the same bits on every platform and the AVX2
// loop, which repeats its operations in its order, can be held to them.
func laplacePairs(src []geom.Point, q []float64, blk *pairBlock) {
	x, y, z, acc := blk.x[:blk.n], blk.y[:blk.n], blk.z[:blk.n], blk.acc[:blk.n]
	for si, s := range src {
		qv := q[si]
		for ti := range x {
			dx := x[ti] - s.X
			dy := y[ti] - s.Y
			dz := z[ti] - s.Z
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			if r2 == 0 {
				continue
			}
			acc[ti] += qv / math.Sqrt(r2)
		}
	}
}

// yukawaPairs is the portable e^{-lambda r}/r pair loop: one math.Sqrt, one
// math.Exp and one divide per pair.
func yukawaPairs(lambda float64, src []geom.Point, q []float64, blk *pairBlock) {
	x, y, z, acc := blk.x[:blk.n], blk.y[:blk.n], blk.z[:blk.n], blk.acc[:blk.n]
	for si, s := range src {
		qv := q[si]
		for ti := range x {
			dx := x[ti] - s.X
			dy := y[ti] - s.Y
			dz := z[ti] - s.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			acc[ti] += qv * math.Exp(-lambda*r) / r
		}
	}
}
