package kernel

import (
	"math"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// The point operators — S->M, S->L, M->T, L->T — on a vector binding. The
// recurrence of sphharm.YnmPackedXYZ has coefficients that depend on (n, m)
// alone, so every point of a leaf does the same work: it vectorises across
// points, not across terms. A point block holds up to eight points (AVX-512)
// or four (AVX2) relative to the expansion centre in structure-of-arrays
// form, and the assembly (point_amd64.s) runs the recurrence for every lane
// at once, each step's coefficients broadcast to all lanes, with the
// kernel's radial half computed lane-wise beside it. S->M and S->L
// accumulate q·c_n·rad_n·conj(Y) into TriSize x 2 x lanes partial sums
// (7 KB at p = 9, L1-resident) reduced once per call; M->T and L->T take the
// dot product lane-wise.
//
// The block binds through the dense kernel's one-per-process binding
// (denseLoop): AVX-512 runs eight lanes, AVX2+FMA four, and without either
// the portable loops (project, evalAt) run, which are also the oracle. The
// geometry and Laplace's radial halves are the portable loop's operations
// lane by lane, and the assembly repeats the recurrence's operations unfused
// and in its order, so per point Y_n^m and r^n, r^{-n-1} are the portable
// loop's bits and M->T and L->T evaluate Laplace to the bit; S->M and S->L
// differ in summation order only. Yukawa's radial halves are within a few
// ulp: the Miller pass for i_n starts at the largest lane's start index and
// fuses its multiply-add, and k_n's e^{-x} is the pair loops' polynomial
// exponential (vexp_amd64.h). Any lane those
// cannot serve — x = λr below 1e-8 (r = 0 included) or above 300, or NaN,
// or a Miller pass that passes 1e250 — gets the scalar radial function,
// branches and all.

// blockPoints is the widest binding's lane count.
const blockPoints = 8

// family names a radial family of the kernel.
type family uint8

const (
	regular family = iota // R_n: r^n, or i_n(λr) scaled
	outer                 // O_n: r^{-n-1}, or k_n(λr) scaled
)

// radial returns the scalar radial function of the family.
func (b *base) radial(f family) radialFunc {
	if f == regular {
		return b.radReg
	}
	return b.radOut
}

// pointBlock is a block of points in structure-of-arrays form with the
// buffers of one pass. The assembly addresses the fields by offset
// (point_amd64.s; TestPointBlockLayout pins it): keep the layout. Lanes
// from n up repeat point n-1, with charge 0 and radial functions 0 when
// projecting, and are dropped when evaluating.
type pointBlock struct {
	x, y, z, q [blockPoints]float64 // unit vector to each point, its charge
	pot        [blockPoints]float64 // M->T, L->T: the field at each point
	xl, inv    [blockPoints]float64 // Yukawa: x = λr and 1/x
	i0         [blockPoints]float64 // Yukawa: i_0(x) = sinh(x)/x
	rad        []float64            // (p+1) rows of lanes: rad_n per lane
	ylm        []float64            // TriSize slots of 2 x lanes: Re Y, Im Y per lane
	acc        []float64            // S->M, S->L partial sums, as ylm
	r          [blockPoints]float64 // |point - centre|
	lanes      int                  // 8 (AVX-512) or 4 (AVX2)
}

// newPointBlock allocates a block for order p. It stays out of line so that
// its allocations are not inlined into the //dashmm:noalloc point
// operators, which reach it on a workspace's first point operator only.
//
//go:noinline
func newPointBlock(p, lanes int) *pointBlock {
	ml := sphharm.TriSize(p)
	return &pointBlock{
		lanes: lanes,
		rad:   make([]float64, (p+1)*lanes),
		ylm:   make([]float64, 2*ml*lanes),
		acc:   make([]float64, 2*ml*lanes),
	}
}

// points returns the workspace's point block for binding l, allocating it on
// the point operators' first use: the translations never need one. (Only
// the tests, which run every binding, ever see the lane count change.)
func (ws *workspace) points(p int, l denseLoop) *pointBlock {
	lanes := 4
	if l == denseAVX512 {
		lanes = 8
	}
	if ws.pt == nil || ws.pt.lanes != lanes {
		ws.pt = newPointBlock(p, lanes)
	}
	return ws.pt
}

// load fills the block from 1 to lanes points relative to c, with charges q
// (nil when evaluating), and pads the remaining lanes with the last point.
//
//dashmm:noalloc
func (pb *pointBlock) load(c geom.Point, pts []geom.Point, q []float64) {
	n := len(pts)
	for i, s := range pts {
		pb.x[i], pb.y[i], pb.z[i], pb.r[i] = sphharm.Direction(s.X-c.X, s.Y-c.Y, s.Z-c.Z)
	}
	for i := n; i < pb.lanes; i++ {
		pb.x[i], pb.y[i], pb.z[i], pb.r[i] = pb.x[n-1], pb.y[n-1], pb.z[n-1], pb.r[n-1]
	}
	if q != nil {
		copy(pb.q[:n], q)
		clear(pb.q[n:pb.lanes])
	}
}

// radials fills pb.rad with the family's radial functions at every lane.
//
//dashmm:noalloc
func (b *base) radials(ws *workspace, pb *pointBlock, f family, l denseLoop) {
	L, p := pb.lanes, b.p
	rad := pb.rad[:(p+1)*L]
	if b.lambda == 0 {
		// Laplace: the scalar loop's powers, lane by lane — r^n from 1, or
		// r^{-n-1} from 1/r.
		mult := pb.r[:L]
		if f == regular {
			for i := range mult {
				rad[i] = 1
			}
		} else {
			for i, r := range mult {
				pb.inv[i] = 1 / r
			}
			mult = pb.inv[:L]
			copy(rad, mult)
		}
		for n := 1; n <= p; n++ {
			prev, cur := rad[(n-1)*L:n*L], rad[n*L:(n+1)*L]
			for i, m := range mult {
				cur[i] = prev[i] * m
			}
		}
		return
	}
	// Yukawa: lanes out of the vector pass's range run it on x = 1 and are
	// overwritten by the scalar function.
	var scalar uint8
	maxX := 0.0
	for i, r := range pb.r[:L] {
		x := b.lambda * r
		if !(x >= 1e-8 && x <= 300) {
			scalar |= 1 << i
			x = 1
		}
		pb.xl[i] = x
		maxX = max(maxX, x)
	}
	if scalar != 1<<L-1 {
		if f == regular {
			for i, x := range pb.xl[:L] {
				inv := 1 / x
				pb.inv[i], pb.i0[i] = inv, math.Sinh(x)*inv
			}
			scalar |= pointMillerOn(l, p, p+16+int(maxX), b.regScale, pb)
		} else {
			pointBesselKOn(l, p, b.outScale, pb)
		}
	}
	for i := 0; scalar != 0; i, scalar = i+1, scalar>>1 {
		if scalar&1 != 0 {
			b.radial(f)(pb.r[i], ws.rad)
			for n, v := range ws.rad[:p+1] {
				rad[n*L+i] = v
			}
		}
	}
}

// pointProject accumulates the family's moments of the sources about c into
// out (project's contract) by binding l.
//
//dashmm:noalloc
func (b *base) pointProject(l denseLoop, f family, c geom.Point, spts []geom.Point, q []float64, out []complex128) {
	if l == denseGo {
		b.project(c, spts, q, b.radial(f), out)
		return
	}
	if len(spts) == 0 {
		return
	}
	ws := b.wsp.get(b)
	pb := ws.points(b.p, l)
	clear(pb.acc)
	q = q[:len(spts)]
	for len(spts) > 0 {
		n := min(len(spts), pb.lanes)
		pb.load(c, spts[:n], q[:n])
		b.radials(ws, pb, f, l)
		for i := n; i < pb.lanes; i++ { // padding contributes exact zeros
			for r := i; r < len(pb.rad); r += pb.lanes {
				pb.rad[r] = 0
			}
		}
		pointProjectOn(l, b.p, b.steps, b.cn, pb)
		spts, q = spts[n:], q[n:]
	}
	L := pb.lanes
	out = out[:len(pb.acc)/(2*L)]
	for i := range out {
		var re, im float64
		for _, v := range pb.acc[2*i*L : (2*i+1)*L] {
			re += v
		}
		for _, v := range pb.acc[(2*i+1)*L : (2*i+2)*L] {
			im += v
		}
		out[i] += complex(re, im)
	}
	b.wsp.put(ws)
}

// pointEval accumulates the family's expansion coeff about c at every target
// (evalAt's contract) by binding l.
//
//dashmm:noalloc
func (b *base) pointEval(l denseLoop, f family, c geom.Point, coeff []complex128, tpts []geom.Point, pot []float64) {
	if l == denseGo {
		b.evalAt(c, coeff, b.radial(f), tpts, pot)
		return
	}
	ws := b.wsp.get(b)
	pb := ws.points(b.p, l)
	coeff = coeff[:sphharm.TriSize(b.p)]
	for len(tpts) > 0 {
		n := min(len(tpts), pb.lanes)
		pb.load(c, tpts[:n], nil)
		b.radials(ws, pb, f, l)
		pointEvalOn(l, b.p, b.steps, coeff, pb)
		for i, v := range pb.pot[:n] {
			pot[i] += v
		}
		tpts, pot = tpts[n:], pot[n:]
	}
	b.wsp.put(ws)
}
