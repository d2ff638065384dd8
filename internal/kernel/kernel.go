// Package kernel implements the interaction kernels of the FMM: the
// scale-invariant Laplace kernel 1/r and the scale-variant Yukawa kernel
// e^{-lambda r}/r, together with the eleven operators of the advanced
// (merge-and-shift) fast multipole method used by the paper:
//
//	S->M, M->M, M->L, L->L, L->T, M->T, S->L, S->T    (basic FMM, Fig. 1c)
//	M->I, I->I, I->L                                  (advanced FMM)
//
// Both kernels share one spherical-harmonic framework. Potentials are real,
// so the m < 0 half of a multipole (M) or local (L) expansion is the
// conjugate of the m >= 0 half and is never stored: an expansion holds the
// (p+1)(p+2)/2 complex coefficients with m >= 0 in the packed
// sphharm.TriIndex layout (Im of an m = 0 coefficient is ignored on input
// and zero on output), and every dense operator is a real-linear map on that
// vector (dense.go). The translation operators M->M, M->L and L->L are
// realized by spectral projection: the expansion's field is evaluated on a
// Gauss–Legendre x trapezoid sphere about the new center and projected back
// onto the basis by orthogonality. For the harmonic (Laplace) and modified
// Helmholtz (Yukawa) equations this is exact up to the quadrature band
// limit, and it sidesteps kernel-specific analytic translation theorems
// (the substitution is recorded in DESIGN.md); correctness is gated by the
// direct-summation accuracy tests in this package and in internal/core.
//
// Intermediate (I) expansions are directional plane-wave expansions; see
// planewave.go.
package kernel

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// Kernel is the interaction-specific part of the FMM, and the whole
// contract between a kernel and everything that drives it: the operators,
// their batched, gradient and operator-cache forms, the root cube it is
// bound to and its near-field price. The two built-in kernels implement it;
// a test double wraps one by embedding it and overrides what it observes.
// Implementations are safe for concurrent use after Prepare has been
// called. All "out" parameters are accumulated into (so a zeroed slice
// receives the plain result); this matches the LCO reduction semantics of
// the runtime.
type Kernel interface {
	BatchKernel
	GradKernel
	OperatorCache

	// Name identifies the kernel ("laplace" or "yukawa").
	Name() string
	// P returns the truncation order of the M and L expansions.
	P() int
	// MLSize returns the number of complex coefficients in an M or L
	// expansion.
	MLSize() int
	// ISize returns the number of complex coefficients in one directional
	// plane-wave expansion at the given tree level (an I DAG node holds six
	// of these). For the scale-variant Yukawa kernel this varies with level.
	ISize(level int) int

	// Prepare precomputes per-level tables for a domain whose root cube has
	// the given side, for tree levels 0..maxLevel. It must be called before
	// any operator is used. A kernel serves one root cube at a time:
	// preparing again for the identical side is idempotent (built tables are
	// kept, deeper levels appended) and safe while operators run; preparing
	// for a different side rebinds the kernel and invalidates every plan
	// built on the old binding (RootSide reports the binding, and core.Plan
	// checks it on every run). A binding past the plane-wave size bounds
	// (ErrRuleTooLarge: a Yukawa λ·side too large, or a Laplace tree too
	// deep for the tables of its order) is refused before anything is
	// allocated and leaves the kernel as it was.
	Prepare(rootSide float64, maxLevel int) error

	// Direct evaluates the kernel G(t, s) for one pair of points.
	Direct(t, s geom.Point) float64

	// S2T accumulates the direct interaction of the sources into the
	// potentials of the targets. Coincident points are skipped (self
	// interaction).
	S2T(spts []geom.Point, q []float64, tpts []geom.Point, pot []float64)
	// S2M forms the multipole expansion about center c of the given sources.
	S2M(c geom.Point, spts []geom.Point, q []float64, out []complex128)
	// S2L forms the local expansion about center c due to well-separated
	// sources.
	S2L(c geom.Point, spts []geom.Point, q []float64, out []complex128)
	// M2T evaluates a multipole expansion at the targets.
	M2T(c geom.Point, m []complex128, tpts []geom.Point, pot []float64)
	// L2T evaluates a local expansion at the targets.
	L2T(c geom.Point, l []complex128, tpts []geom.Point, pot []float64)

	// The translations take box centres in one frame — a plan's are
	// root-relative (package tree) — and replay the cached table of their
	// centre difference. A difference off the operator's lattice (for M2M
	// and L2L one of the eight parent/child vectors, for M2L a list-2
	// offset) is a programming error: the operator panics, naming itself,
	// the offset and the side.
	//
	// M2M translates a child multipole expansion (child box side childSide,
	// centered at from) to the parent center to.
	M2M(from, to geom.Point, childSide float64, in, out []complex128)
	// M2L converts a multipole expansion of a source box with side `side`
	// centered at from into a local expansion about to; to - from is a
	// list-2 offset, an integer multiple of side with Chebyshev norm 2 or 3.
	// A built-in kernel truncates it at the offset's order (m2lOrder): the
	// coefficients of out above that degree are left as they were.
	M2L(from, to geom.Point, side float64, in, out []complex128)
	// L2L translates a parent local expansion to a child center; childSide
	// is the side of the child box.
	L2L(from, to geom.Point, childSide float64, in, out []complex128)

	// M2I converts a multipole expansion of a level-`level` box into the
	// outgoing plane-wave expansion for direction dir about the same center.
	M2I(dir geom.Direction, level int, in, out []complex128)
	// I2I translates a plane-wave expansion by the world-frame vector shift
	// (a diagonal, pointwise operation) and accumulates it into out. The
	// shift joins two box centres of the plan: a half-box lattice vector of
	// the level within reach; any other panics, naming the shift and the
	// level's box side.
	I2I(dir geom.Direction, level int, shift geom.Point, in, out []complex128)
	// I2L converts an accumulated incoming plane-wave expansion into a local
	// expansion about the box center.
	I2L(dir geom.Direction, level int, in, out []complex128)

	// RootSide reports the root-cube side the kernel is prepared for (0
	// before the first Prepare).
	RootSide() float64
	// PairNanos reports the near-field cost per source–target pair of the
	// pair loop the kernel bound (cost.go).
	PairNanos() float64
}

// radialFunc fills out[n], n = 0..p, with a radial basis function at r.
type radialFunc func(r float64, out []float64)

// base carries the kernel-independent spherical-harmonic engine. The
// concrete kernels embed it and supply the radial functions, the moment
// prefactors and the plane-wave quadrature rule.
type base struct {
	name string
	p    int
	coef *sphharm.Coef

	radReg radialFunc // regular radial functions R_n (r^n or i_n(kr))
	radOut radialFunc // outer radial functions O_n (r^{-n-1} or k_n(kr))
	cn     []float64  // moment prefactor c_n (see S2M)
	// steps is the Y_n^m recurrence flattened for the point block
	// (point.go): (a, b) per packed slot, K_0^0 in slot 0. Borrowed from the
	// order's sphere rule, like coef.
	steps []float64
	// regScale and outScale are the Yukawa radial halves' scale rows, which
	// the point block's lane-wise Bessel passes multiply by; nil for Laplace.
	regScale, outScale []float64

	// Sphere quadrature for the projection-based translations: directions
	// and weights integrating spherical harmonics of degree <= band exactly,
	// with oversampling to suppress aliasing of out-of-band modes. Borrowed,
	// like coef, from the one rule of the order (sphereFor): read-only.
	sph []sphNode

	// Projection radii, as multiples of the relevant box side.
	aM2M, aM2L, aL2L float64

	directF func(r float64) float64    // pointwise kernel G(r)
	gradF   func(r float64) float64    // dG/dr, for gradient eval
	pwNodes func(side float64) boxRule // box-unit plane-wave rule of a box side
	// pair is the near-field pair loop behind S2T and P2P (p2p.go), bound at
	// construction; lambda is the screening parameter its Yukawa loop reads.
	pair   pairLoop
	lambda float64
	// pwShift is the process-wide I->I shift table of a kernel whose
	// box-unit rule is the same at every box side (Laplace: one table per
	// generated rule), nil when each level's rule has a table of its own.
	pwShift *shiftTable
	prepMu  sync.Mutex               // serializes Prepare
	pw      atomic.Pointer[pwTables] // plane-wave machinery, published by Prepare
	wsp     wsChan                   // scratch workspace free list

	// tabs is the kernel's one dense-table cache, xlKey -> *tableEntry: the
	// eight parent/child translations of M->M and L->L and the per-lattice-
	// offset list-2 M->L operators of every box side, and the M->I / I->L
	// pair of every (level, direction) (api.go: tableEntry).
	tabs sync.Map
}

type sphNode struct {
	dir geom.Point   // unit direction
	w   float64      // quadrature weight (sums to 4 pi)
	y   []complex128 // Y_n^m(dir), m >= 0, packed
}

const sphOversample = 3 // extra theta rows beyond exactness

// sphRule is the sphere quadrature of one truncation order with the
// harmonics' normalization constants: (p+4)(2p+8) nodes each carrying
// TriSize(p) packed Y_n^m — 0.34 MB at three digits, 29 MB at twelve — a
// function of p alone and immutable once built.
type sphRule struct {
	coef  *sphharm.Coef
	steps []float64
	nodes []sphNode
}

// sphRules holds one sphRule per order for the life of the process, so a
// daemon with a kernel value per cached plan holds one quadrature, not one
// per plan. Keyed on p only, which requests bound (serve admits digits 1-12):
// a Yukawa lambda comes off the wire and must not key anything immortal.
var sphRules sync.Map // int -> *sphRule

// sphereFor returns the shared rule of order p, building it on first use
// (racing first users build identical rules and all but one discard).
func sphereFor(p int) *sphRule {
	if r, ok := sphRules.Load(p); ok {
		return r.(*sphRule)
	}
	r := &sphRule{coef: sphharm.NewCoef(p), steps: make([]float64, 2*sphharm.TriSize(p))}
	for i := range sphharm.TriSize(p) {
		r.steps[2*i], r.steps[2*i+1] = r.coef.Step(i)
	}
	r.steps[0] = r.coef.K(0, 0)
	nth := p + 1 + sphOversample
	nph := 2*p + 2 + 2*sphOversample
	xs, ws := sphharm.GaussLegendre(nth)
	for i := 0; i < nth; i++ {
		ct := xs[i]
		st := math.Sqrt(1 - ct*ct)
		for j := 0; j < nph; j++ {
			phi := 2 * math.Pi * float64(j) / float64(nph)
			n := sphNode{
				dir: geom.Point{X: st * math.Cos(phi), Y: st * math.Sin(phi), Z: ct},
				w:   ws[i] * 2 * math.Pi / float64(nph),
				y:   make([]complex128, sphharm.TriSize(p)),
			}
			r.coef.YnmPackedXYZ(n.dir.X, n.dir.Y, n.dir.Z, n.y)
			r.nodes = append(r.nodes, n)
		}
	}
	shared, _ := sphRules.LoadOrStore(p, r)
	return shared.(*sphRule)
}

func newBase(name string, p int, radReg, radOut radialFunc, cn []float64) *base {
	sph := sphereFor(p)
	return &base{
		name:   name,
		p:      p,
		coef:   sph.coef,
		steps:  sph.steps,
		sph:    sph.nodes,
		radReg: radReg,
		radOut: radOut,
		cn:     cn,
		aM2M:   1.5,
		aM2L:   1.05,
		aL2L:   1.0,
	}
}

func (b *base) Name() string { return b.name }
func (b *base) P() int       { return b.p }
func (b *base) MLSize() int  { return sphharm.TriSize(b.p) }

// workspace bundles the per-call scratch buffers so the hot paths do not
// allocate. Callers on distinct goroutines get distinct workspaces via the
// free list below.
type workspace struct {
	rad []float64
	ylm []complex128
	pt  *pointBlock // the point operators' block on a vector binding, on first use
}

// newWorkspace stays out of line, like newPointBlock: a free-list miss
// allocates, and the //dashmm:noalloc functions that take a workspace must
// not inline the allocation.
//
//go:noinline
func (b *base) newWorkspace() *workspace {
	return &workspace{
		rad: make([]float64, b.p+1),
		ylm: make([]complex128, sphharm.TriSize(b.p)),
	}
}

// wsChan is a tiny free list of workspaces; a sync.Pool would also do but
// this keeps allocation behaviour deterministic for the benchmarks.
type wsChan chan *workspace

func newWSChan() wsChan { return make(chan *workspace, 64) }

func (c wsChan) get(b *base) *workspace {
	select {
	case w := <-c:
		return w
	default:
		return b.newWorkspace()
	}
}

func (c wsChan) put(w *workspace) {
	select {
	case c <- w:
	default:
	}
}

// project accumulates the moments of the sources about c in the radial
// family rf, m >= 0 only. With the regular family it is S->M,
//
//	M_n^m = sum_s q_s c_n R_n(r_s) conj(Y_n^m(s_hat)),
//
// so that the far field is Phi(t) = sum M_n^m O_n(r_t) Y_n^m(t_hat) over all
// m, with M_n^{-m} = conj(M_n^m) because the charges are real; with the
// outer family it is S->L, L_n^m = sum_s q_s c_n O_n(r_s) conj(Y_n^m(s_hat)),
// so that Phi(t) = sum L_n^m R_n(r_t) Y_n^m(t_hat) for targets nearer to c
// than every source.
func (b *base) project(c geom.Point, spts []geom.Point, q []float64, rf radialFunc, out []complex128) {
	ws := b.wsp.get(b)
	out = out[:len(ws.ylm)]
	for i, s := range spts {
		x, y, z, r := sphharm.Direction(s.X-c.X, s.Y-c.Y, s.Z-c.Z)
		rf(r, ws.rad)
		b.coef.YnmPackedXYZ(x, y, z, ws.ylm)
		row := 0
		for n, cn := range b.cn {
			f := q[i] * cn * ws.rad[n]
			ys := ws.ylm[row : row+n+1]
			os := out[row : row+n+1]
			os = os[:len(ys)]
			for m, y := range ys {
				os[m] += complex(f*real(y), -f*imag(y))
			}
			row += n + 1
		}
	}
	b.wsp.put(ws)
}

// evalExpansion evaluates the real field of a packed expansion,
//
//	sum_n rad_n(r) [c_n^0 Y_n^0 + 2 Re sum_{m>0} c_n^m Y_n^m](t_hat),
//
// at point t relative to center c.
func (b *base) evalExpansion(ws *workspace, c geom.Point, coeff []complex128, rf radialFunc, t geom.Point) float64 {
	x, y, z, r := sphharm.Direction(t.X-c.X, t.Y-c.Y, t.Z-c.Z)
	rf(r, ws.rad)
	b.coef.YnmPackedXYZ(x, y, z, ws.ylm)
	coeff = coeff[:len(ws.ylm)]
	var acc float64
	row := 0
	for n, rad := range ws.rad {
		ys := ws.ylm[row : row+n+1]
		cs := coeff[row : row+n+1]
		cs = cs[:len(ys)]
		sn := 0.5 * real(cs[0]) * real(ys[0]) // Y_n^0 is real
		for m := 1; m < len(ys); m++ {
			sn += real(cs[m])*real(ys[m]) - imag(cs[m])*imag(ys[m])
		}
		acc += 2 * sn * rad
		row += n + 1
	}
	return acc
}

// evalAt accumulates the expansion's field at every target: M->T with the
// outer radial family, L->T with the regular one.
func (b *base) evalAt(c geom.Point, coeff []complex128, rf radialFunc, tpts []geom.Point, pot []float64) {
	ws := b.wsp.get(b)
	for i, t := range tpts {
		pot[i] += b.evalExpansion(ws, c, coeff, rf, t)
	}
	b.wsp.put(ws)
}
