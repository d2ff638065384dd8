package kernel

import (
	"math"
	"math/cmplx"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// The realness oracle's reference: the full-layout complex engine the
// packed one replaced — (p+1)^2 coefficients in the sphharm.SqIndex layout,
// every alpha-node of the plane-wave rule, complex arithmetic throughout —
// kept as test-only code. It shares the kernel's radial functions, sphere
// nodes and quadrature rule (the things that did not change) and none of
// its operators, and it reaches Y_n^m through the angles and the associated
// Legendre functions (legendreYnm), not through the engine's Cartesian
// recurrence.

type refEngine struct {
	b   *base
	y   [][]complex128 // full Y_n^m at the sphere nodes
	ylm []complex128
	tri []float64
	rad []float64
}

func newRefEngine(k Kernel) *refEngine {
	b := k.(*base)
	r := &refEngine{
		b:   b,
		ylm: make([]complex128, sphharm.SqSize(b.p)),
		tri: make([]float64, sphharm.TriSize(b.p)),
		rad: make([]float64, b.p+1),
	}
	for _, n := range b.sph {
		y := make([]complex128, sphharm.SqSize(b.p))
		legendreYnm(b.coef, n.dir.Z, math.Atan2(n.dir.Y, n.dir.X), y, r.tri)
		r.y = append(r.y, y)
	}
	return r
}

// project is the full S->M / S->L: every m, conj(Y_n^m) per source.
func (r *refEngine) project(c geom.Point, spts []geom.Point, q []float64, rf radialFunc) []complex128 {
	b := r.b
	out := make([]complex128, sphharm.SqSize(b.p))
	for i, s := range spts {
		v := s.Sub(c)
		d := v.Norm()
		ct, phi := angles(v, d)
		rf(d, r.rad)
		legendreYnm(b.coef, ct, phi, r.ylm, r.tri)
		for n := 0; n <= b.p; n++ {
			f := complex(q[i]*b.cn[n]*r.rad[n], 0)
			for m := -n; m <= n; m++ {
				idx := sphharm.SqIndex(n, m)
				out[idx] += f * cmplx.Conj(r.ylm[idx])
			}
		}
	}
	return out
}

// eval is the full complex expansion value at t.
func (r *refEngine) eval(c geom.Point, coeff []complex128, rf radialFunc, t geom.Point) complex128 {
	b := r.b
	v := t.Sub(c)
	d := v.Norm()
	ct, phi := angles(v, d)
	rf(d, r.rad)
	legendreYnm(b.coef, ct, phi, r.ylm, r.tri)
	var acc complex128
	for n := 0; n <= b.p; n++ {
		var sn complex128
		for m := -n; m <= n; m++ {
			idx := sphharm.SqIndex(n, m)
			sn += coeff[idx] * r.ylm[idx]
		}
		acc += sn * complex(r.rad[n], 0)
	}
	return acc
}

// grad is the symmetric-difference gradient of Re eval, with expGrad's step.
func (r *refEngine) grad(c geom.Point, coeff []complex128, rf radialFunc, t geom.Point) geom.Point {
	h := 1e-6 * t.Dist(c)
	d := func(e geom.Point) float64 {
		return real(r.eval(c, coeff, rf, t.Add(e))-r.eval(c, coeff, rf, t.Sub(e))) / (2 * h)
	}
	return geom.Point{X: d(geom.Point{X: h}), Y: d(geom.Point{Y: h}), Z: d(geom.Point{Z: h})}
}

// projectSphere computes coef[n,m] = (sum_q w_q f(q) conj(Y_nm(q))) / rad[n]
// from samples at the sphere nodes.
func (r *refEngine) projectSphere(f []complex128, rad []float64) []complex128 {
	b := r.b
	coef := make([]complex128, sphharm.SqSize(b.p))
	for q, n := range b.sph {
		fw := f[q] * complex(n.w, 0)
		for idx, y := range r.y[q] {
			coef[idx] += fw * cmplx.Conj(y)
		}
	}
	for n := 0; n <= b.p; n++ {
		for m := -n; m <= n; m++ {
			coef[sphharm.SqIndex(n, m)] /= complex(rad[n], 0)
		}
	}
	return coef
}

// translate is the full projection-based translation.
func (r *refEngine) translate(from, to geom.Point, a float64, in []complex128, inRF, outRF radialFunc) []complex128 {
	field := make([]complex128, len(r.b.sph))
	for i, n := range r.b.sph {
		field[i] = r.eval(from, in, inRF, to.Add(n.dir.Scale(a)))
	}
	rad := make([]float64, r.b.p+1)
	outRF(a, rad)
	return r.projectSphere(field, rad)
}

// alphaCounts returns m_k, the alpha-node count of every u-node of the full
// rule: the production rule keeps the first half of each, alpha_j < pi.
func alphaCounts(rule *pwRule) []int {
	m := make([]int, len(rule.cosA))
	for k, kept := range rule.cosA {
		m[k] = 2 * len(kept)
	}
	return m
}

// waveBasis evaluates term (k, j) of the full rule — alpha_j = 2 pi j / m_k
// over every j < m_k — at the sphere nodes of radius a in dir's frame:
// outgoing e^{+mu zeta - i u (.)} and incoming e^{-mu zeta + i u (.)}.
func (r *refEngine) waveBasis(rule *pwRule, dir geom.Direction, a float64, k, j int) (gOut, gIn []complex128) {
	gOut = make([]complex128, len(r.b.sph))
	gIn = make([]complex128, len(r.b.sph))
	alpha := 2 * math.Pi * float64(j) / float64(2*len(rule.cosA[k]))
	for q, n := range r.b.sph {
		v := dir.RotateToUp(n.dir.Scale(a))
		ph := rule.u[k] * (v.X*math.Cos(alpha) + v.Y*math.Sin(alpha))
		e := math.Exp(rule.mu[k] * v.Z)
		gOut[q] = complex(e*math.Cos(ph), -e*math.Sin(ph))
		gIn[q] = complex(math.Cos(ph)/e, math.Sin(ph)/e)
	}
	return gOut, gIn
}

// m2i is the full M->I: X[t] = sum_nm (g_{n,-m}(t) / c_n) M[n,m] over every
// term of the rule, blocks of m_k in k order.
func (r *refEngine) m2i(dir geom.Direction, level int, in []complex128) []complex128 {
	b := r.b
	lv := b.pw.Load().levels[level]
	radA := make([]float64, b.p+1)
	b.radReg(0.9*lv.side, radA)
	var out []complex128
	for k, mk := range alphaCounts(lv.rule) {
		for j := 0; j < mk; j++ {
			gOut, _ := r.waveBasis(lv.rule, dir, 0.9*lv.side, k, j)
			coef := r.projectSphere(gOut, radA)
			var x complex128
			for n := 0; n <= b.p; n++ {
				for m := -n; m <= n; m++ {
					x += coef[sphharm.SqIndex(n, -m)] / complex(b.cn[n], 0) * in[sphharm.SqIndex(n, m)]
				}
			}
			out = append(out, x)
		}
	}
	return out
}

// i2l is the full I->L: L[n,m] = sum_t (w_k / m_k) E_{n,m}(t) X[t].
func (r *refEngine) i2l(dir geom.Direction, level int, x []complex128) []complex128 {
	b := r.b
	lv := b.pw.Load().levels[level]
	radA := make([]float64, b.p+1)
	b.radReg(0.9*lv.side, radA)
	out := make([]complex128, sphharm.SqSize(b.p))
	t := 0
	for k, mk := range alphaCounts(lv.rule) {
		for j := 0; j < mk; j++ {
			_, gIn := r.waveBasis(lv.rule, dir, 0.9*lv.side, k, j)
			coef := r.projectSphere(gIn, radA)
			wk := complex(lv.rule.w[k]/float64(mk), 0)
			for idx := range out {
				out[idx] += wk * coef[idx] * x[t]
			}
			t++
		}
	}
	return out
}

// i2i is the full pointwise shift, straight from the defining formula.
func (r *refEngine) i2i(dir geom.Direction, level int, shift geom.Point, x []complex128) []complex128 {
	rule := r.b.pw.Load().levels[level].rule
	v := dir.RotateToUp(shift)
	out := make([]complex128, 0, len(x))
	for k, mk := range alphaCounts(rule) {
		e := math.Exp(-rule.mu[k] * v.Z)
		for j := 0; j < mk; j++ {
			alpha := 2 * math.Pi * float64(j) / float64(mk)
			ph := rule.u[k] * (v.X*math.Cos(alpha) + v.Y*math.Sin(alpha))
			out = append(out, x[len(out)]*complex(e*math.Cos(ph), e*math.Sin(ph)))
		}
	}
	return out
}

// unpackML spreads a packed expansion over the full layout: the m >= 0 half
// as stored (Im of an m = 0 coefficient dropped — it is ignored on input),
// the m < 0 half its conjugate.
func unpackML(p int, x []complex128) []complex128 {
	full := make([]complex128, sphharm.SqSize(p))
	for n := 0; n <= p; n++ {
		full[sphharm.SqIndex(n, 0)] = complex(real(x[sphharm.TriIndex(n, 0)]), 0)
		for m := 1; m <= n; m++ {
			v := x[sphharm.TriIndex(n, m)]
			full[sphharm.SqIndex(n, m)] = v
			full[sphharm.SqIndex(n, -m)] = cmplx.Conj(v)
		}
	}
	return full
}

// packML keeps the m >= 0 half of a full expansion.
func packML(p int, full []complex128) []complex128 {
	x := make([]complex128, sphharm.TriSize(p))
	for n := 0; n <= p; n++ {
		for m := 0; m <= n; m++ {
			x[sphharm.TriIndex(n, m)] = full[sphharm.SqIndex(n, m)]
		}
	}
	return x
}

// unpackWave spreads a half wave over every alpha-node of the rule: node
// j + m_k/2 is alpha_j + pi and carries the conjugate.
func unpackWave(rule *pwRule, x []complex128) []complex128 {
	var full []complex128
	for k, mk := range alphaCounts(rule) {
		half := x[rule.off[k] : rule.off[k]+mk/2]
		full = append(full, half...)
		for _, v := range half {
			full = append(full, cmplx.Conj(v))
		}
	}
	return full
}

// packWave keeps the first half of every alpha-block of a full wave.
func packWave(rule *pwRule, full []complex128) []complex128 {
	var x []complex128
	lo := 0
	for _, mk := range alphaCounts(rule) {
		x = append(x, full[lo:lo+mk/2]...)
		lo += mk
	}
	return x
}

// legendreYnm fills the full layout, Y_n^m at out[SqIndex(n, m)], from
// sphharm.AssocLegendre, the K_n^m of coef and e^{i m phi} taken afresh per
// m: the evaluator the engine used before YnmPackedXYZ. tri is scratch of
// TriSize(p).
func legendreYnm(coef *sphharm.Coef, ct, phi float64, out []complex128, tri []float64) {
	p := coef.P
	sphharm.AssocLegendre(p, ct, tri)
	for m := 0; m <= p; m++ {
		sin, cos := math.Sincos(float64(m) * phi)
		for n := m; n <= p; n++ {
			v := coef.K(n, m) * tri[sphharm.TriIndex(n, m)]
			out[sphharm.SqIndex(n, m)] = complex(v*cos, v*sin)
			out[sphharm.SqIndex(n, -m)] = complex(v*cos, -v*sin)
		}
	}
}

// angles returns (cos theta, phi) of the vector v with |v| = r, mapping the
// zero vector to the north pole: the reference reaches Y_n^m through the
// angles, as the engine did before it evaluated at the unit vector.
func angles(v geom.Point, r float64) (ct, phi float64) {
	if r == 0 {
		return 1, 0
	}
	ct = v.Z / r
	if ct > 1 {
		ct = 1
	} else if ct < -1 {
		ct = -1
	}
	phi = math.Atan2(v.Y, v.X)
	return ct, phi
}
