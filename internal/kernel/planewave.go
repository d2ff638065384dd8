// Plane-wave ("intermediate", I) expansions for the merge-and-shift FMM.
//
// For a target strictly above a source (z_t - z_s >= z_min in box units) the
// kernels admit exponential integral representations:
//
//	Laplace:  1/r        = int_0^inf e^{-u z} J0(u rho) du
//	Yukawa:   e^{-kr}/r  = int_0^inf u/mu e^{-mu z} J0(u rho) du,  mu = sqrt(u^2+k^2)
//
// with J0(u rho) = (1/M) sum_j e^{i u (x cos a_j + y sin a_j)} by the
// trapezoid rule. Discretizing u gives the directional plane-wave expansion
//
//	X[k,j] = sum_s q_s e^{+mu_k zeta_s} e^{-i u_k (xi_s cos a_j + eta_s sin a_j)}
//
// about the box center, where (xi, eta, zeta) are source coordinates rotated
// so the expansion direction plays the role of +z. Every M is even, so the
// alpha-nodes pair as (a, a + pi), and because the charges are real the
// coefficients of a pair are conjugates: an I expansion keeps j < M/2 only,
// and a pair contributes 2 Re(X[k,j] E_kj) to the incoming field. Translating
// X to a new center is a pointwise multiply (the paper's cheap, numerous
// I->I edge) whose factors are tabulated on the box lattice (shifttable.go);
// M->I and I->L are dense real-linear tables (dense.go) precomputed per
// (direction, level) by projecting the plane-wave basis functions — which
// satisfy the same PDE as the kernel — onto the spherical-harmonic basis
// (see DESIGN.md for why this substitutes for the Yarvin–Rokhlin generalized
// quadratures).
//
// Both rules are in box units (z in [1, 4], rho <= 4*sqrt(2)) and rescaled
// per tree level. Laplace's is generated per truncation order (package
// pwrule, checked in as pwrule_laplace.go): nodes picked by a pivoted QR
// from Gauss–Legendre candidates, accurate to the (sqrt(3)/4)^p the
// multipole truncation is, 268 terms per direction at three digits, 865 at
// six. Yukawa's is a Gauss–Legendre rule whose cutoff and node count depend
// on kappa*side and hence on the level, reproducing the depth-dependent
// I-expansion length noted in the paper.
package kernel

//go:generate go run ./pwrulegen -o pwrule_laplace.go
//go:generate go run ./asmgen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// pwRule is a plane-wave quadrature for one tree level: the nodes in world
// units (u, mu, w — what the M->I / I->L projections integrate against) and
// in box units (uh, muh — what the I->I shift factors are tabulated on, see
// shifttable.go).
type pwRule struct {
	u     []float64 // radial (oscillation) frequencies
	mu    []float64 // decay rates (Laplace: mu = u)
	w     []float64 // weights, including the u/mu factor for Yukawa
	uh    []float64 // u * side: box-unit frequencies
	muh   []float64 // mu * side: box-unit decay rates
	off   []int     // start of the k-th block of kept coefficients
	total int       // sum of m_k/2: complex coefficients kept per direction
	// cos and sin of the kept alpha-nodes a_j = 2 pi j / m_k, j < m_k/2 (m_k
	// is even, so the dropped node j + m_k/2 is a_j + pi).
	cosA [][]float64
	sinA [][]float64
	// fingerprint identifies the rule a level's M->I and I->L tables were
	// built from (FNV-1a over the bits of u, mu, w and m_k): a spilled table
	// of another rule is rebuilt even when its size matches.
	fingerprint uint64
}

// boxRule is a plane-wave quadrature in box units: nodes u and decay rates
// mu (Laplace: mu = u), weights w and alpha counts m (every one even).
type boxRule struct {
	u, mu, w []float64
	m        []int
}

// terms is the complex coefficients the rule keeps per direction, Σ m_k/2.
func (n boxRule) terms() int {
	t := 0
	for _, m := range n.m {
		t += m / 2
	}
	return t
}

// laplaceRuleOrder is the order whose generated rule a Laplace kernel of
// order p uses: its own, clamped to the orders generated.
func laplaceRuleOrder(p int) int { return min(max(p, laplaceMinOrder), len(laplaceRules)-1) }

// laplaceNodes returns the generated box-unit rule of order p.
func laplaceNodes(p int) boxRule { return laplaceRules[laplaceRuleOrder(p)] }

// The Yukawa rule's generation constants.
const (
	pwUmax   = 13.0  // box-unit integration cutoff at kappa*side = 0
	pwNu     = 20    // number of Gauss–Legendre u-nodes at kappa*side = 0
	pwRhoMax = 5.657 // 4*sqrt(2): max lateral offset in box units
	// Alpha count: m_k = ceil(pwAlphaC * u_k * pwRhoMax) + pwAlphaB, rounded
	// up to even.
	pwAlphaC = 1.0
	pwAlphaB = 10
)

// makeRule assembles a rule from box-unit nodes for boxes of the given
// world side.
func makeRule(n boxRule, side float64) *pwRule {
	r := &pwRule{
		u:   make([]float64, len(n.u)),
		mu:  make([]float64, len(n.u)),
		w:   make([]float64, len(n.u)),
		uh:  n.u,
		muh: n.mu,
	}
	h := fnv.New64a()
	for k := range n.u {
		r.u[k] = n.u[k] / side
		r.mu[k] = n.mu[k] / side
		r.w[k] = n.w[k] / side
		mk := n.m[k]
		var node [32]byte
		binary.LittleEndian.PutUint64(node[0:], math.Float64bits(r.u[k]))
		binary.LittleEndian.PutUint64(node[8:], math.Float64bits(r.mu[k]))
		binary.LittleEndian.PutUint64(node[16:], math.Float64bits(r.w[k]))
		binary.LittleEndian.PutUint64(node[24:], uint64(mk))
		h.Write(node[:])
		r.off = append(r.off, r.total)
		r.total += mk / 2
		ca := make([]float64, mk/2)
		sa := make([]float64, mk/2)
		for j := range ca {
			a := 2 * math.Pi * float64(j) / float64(mk)
			ca[j] = math.Cos(a)
			sa[j] = math.Sin(a)
		}
		r.cosA = append(r.cosA, ca)
		r.sinA = append(r.sinA, sa)
	}
	r.fingerprint = h.Sum64()
	return r
}

// yukawaCutoff returns the integration cutoff and the node count of the
// Sommerfeld rule with kappa*side = x. The cutoff adapts to x: the tail is
// negligible once e^{-mu z_min} is below eps relative to the leading e^{-x}
// scale, so umax = sqrt((x+umax0)^2 - x^2), computed as sqrt(2 x umax0 +
// umax0^2), which does not become Inf - Inf for a large x; fewer
// oscillations are needed for large x, which is the scale variance the
// paper exploits.
func yukawaCutoff(x float64) (umax, nu float64) {
	umax = math.Sqrt(2*x*pwUmax + pwUmax*pwUmax)
	return umax, math.Ceil(pwNu * max(1, umax/pwUmax))
}

// maxRuleTerms bounds the Yukawa plane-wave rule of a level: the complex
// coefficients one direction keeps. Its rule grows as about 57·λ·side
// (yukawaRuleTerms), so the bound is λ·side ≲ 18 000 on the root cube — λ
// up to that on the unit-cube ensembles of points.Generate.
const maxRuleTerms = 1 << 20

// maxWaveTableBytes bounds the M->I and I->L tables a Laplace kernel
// prepared for a tree can build: twelve per level (six directions, two
// kinds) of 2·ISize·MLSize complex values each, on every level from 2, the
// first with list-2 boxes, to the deepest prepared. The generated rule grows
// with the order — one table is 0.47 MB at three digits, 4.7 MB at six and
// 62 MB (747 MB a level) at twelve — so a deep tree at high accuracy is
// refused here rather than left to build gigabytes on first use.
const maxWaveTableBytes = 2 << 30

// yukawaRuleTerms bounds from above, without building it, the terms per
// direction of the rule yukawaNodes(x) makes: the Gauss–Legendre nodes are
// symmetric, so the u_k average umax/2 and Σ m_k/2 is at most nu·(umax·ρ/2 +
// pwAlphaB + 2)/2.
func yukawaRuleTerms(x float64) float64 {
	umax, nu := yukawaCutoff(x)
	return nu * (pwAlphaC*umax*pwRhoMax/2 + pwAlphaB + 2) / 2
}

// ErrRuleTooLarge is the error Prepare returns for a root cube whose
// plane-wave rule would exceed maxRuleTerms (Yukawa), or for a tree whose
// plane-wave tables could exceed maxWaveTableBytes (Laplace).
var ErrRuleTooLarge = errors.New("kernel: plane-wave rule too large")

// checkRule refuses a binding whose plane-wave work is past its bound: for
// Yukawa the level-0 rule, the largest of any level (x halves with the
// side); for Laplace, whose rule is the same at every level, the tables of
// levels 2..maxLevel.
func (b *base) checkRule(rootSide float64, maxLevel int) error {
	if b.pwShift == nil {
		if n := yukawaRuleTerms(b.lambda * rootSide); !(n <= maxRuleTerms) {
			return fmt.Errorf("%w: yukawa lambda %g on a root cube of side %g needs %.3g plane-wave terms per direction, over the bound of %d (lambda·side at most about 18000)",
				ErrRuleTooLarge, b.lambda, rootSide, n, maxRuleTerms)
		}
		return nil
	}
	perLevel := 12 * 2 * 16 * float64(b.pwNodes(rootSide).terms()*b.MLSize())
	if bytes := float64(max(0, maxLevel-1)) * perLevel; bytes > maxWaveTableBytes {
		return fmt.Errorf("%w: laplace order %d needs %.3g GB of plane-wave tables for tree levels 0..%d, over the bound of %.3g GB (levels 0..%d at most at this order)",
			ErrRuleTooLarge, b.p, bytes/1e9, maxLevel, maxWaveTableBytes/1e9, 1+int(maxWaveTableBytes/perLevel))
	}
	return nil
}

// yukawaNodes returns the box-unit rule of the Sommerfeld integral with
// kappa*side = x (yukawaCutoff).
func yukawaNodes(x float64) boxRule {
	umax, fnu := yukawaCutoff(x)
	nu := int(fnu)
	xs, ws := sphharm.GaussLegendre(nu)
	r := boxRule{u: make([]float64, nu), mu: make([]float64, nu), w: make([]float64, nu), m: make([]int, nu)}
	for k := range xs {
		uk := umax * (xs[k] + 1) / 2
		muk := math.Sqrt(uk*uk + x*x)
		r.u[k] = uk
		r.mu[k] = muk
		r.w[k] = ws[k] * umax / 2 * uk / muk
		mk := int(math.Ceil(pwAlphaC*uk*pwRhoMax)) + pwAlphaB
		r.m[k] = mk + mk&1
	}
	return r
}

// pwTables holds, per tree level, the quadrature rule the level's M->I and
// I->L tables (in base.tabs, built lazily per direction) and I->I factors
// are made from. A published pwTables is immutable (Prepare swaps in a new
// one; the levels it shares with its predecessor are the same *pwLevel
// values), so operators read it with one atomic load and no lock.
type pwTables struct {
	b        *base
	rootSide float64
	levels   []*pwLevel
}

type pwLevel struct {
	rule  *pwRule
	side  float64
	shift *shiftTable // I->I factors on the box lattice (shifttable.go)
}

// preparePW binds the kernel to a root cube. A kernel serves one root cube
// at a time — the operators take a tree level, and level -> box side is
// rootSide / 2^level — so preparing again for the identical side keeps every
// built table and only appends the levels a deeper tree needs, while
// preparing for a different side rebinds the kernel: plans built on the old
// binding then refuse to run (see core.Plan), and every table of theirs is
// dropped with it. Prepare calls serialize on prepMu; operators never take
// it. A binding checkRule refuses changes nothing.
func (b *base) preparePW(rootSide float64, maxLevel int) error {
	if err := b.checkRule(rootSide, maxLevel); err != nil {
		return err
	}
	b.prepMu.Lock()
	defer b.prepMu.Unlock()
	t := &pwTables{b: b, rootSide: rootSide}
	switch cur := b.pw.Load(); {
	case cur == nil: // first binding: whatever was imported waits for its lookup
	case cur.rootSide == rootSide:
		t.levels = append(t.levels, cur.levels...)
	default:
		b.tabs.Range(func(k, _ any) bool {
			b.tabs.Delete(k)
			return true
		})
	}
	for l := len(t.levels); l <= maxLevel; l++ {
		side := rootSide / float64(int64(1)<<uint(l))
		lv := &pwLevel{
			rule:  makeRule(b.pwNodes(side), side),
			side:  side,
			shift: b.pwShift,
		}
		if lv.shift == nil {
			lv.shift = &shiftTable{}
		}
		t.levels = append(t.levels, lv)
	}
	b.pw.Store(t)
	return nil
}

// RootSide implements Kernel. core.Plan compares it against its own domain
// to detect a kernel that was rebound under it.
func (b *base) RootSide() float64 {
	if t := b.pw.Load(); t != nil {
		return t.rootSide
	}
	return 0
}

// table returns the M->I (pwM2IKind) or I->L (pwI2LKind) table of (dir,
// level): total x MLSize entries, and MLSize x total with the weights folded
// in. The two are built as a pair on the first use of either.
func (t *pwTables) table(kind uint8, dir geom.Direction, l int) []complex128 {
	lv := t.levels[l]
	key := xlKey{kind: kind, sideBits: math.Float64bits(lv.side), ox: int8(dir), oy: int8(l)}
	e := t.b.entry(key)
	if !e.ok.Load() {
		// The M->I entry's once guards the pair: the two tables come out of
		// one sampling pass and one projector, and two workers that race for
		// either build the pair once (≈ 10 ms at three digits on AVX-512,
		// the bench's kernel.m2i_build_ms). An imported
		// pair is kept when both tables were built from the level's rule in
		// this layout (stamp) and fit it (size), and rebuilt otherwise.
		key.kind = pwM2IKind
		m2i := t.b.entry(key)
		key.kind = pwI2LKind
		i2l := t.b.entry(key)
		m2i.once.Do(func() {
			want, fp := 2*lv.rule.total*t.b.MLSize(), lv.rule.fingerprint^tableLayout
			if len(m2i.mx) != want || len(i2l.mx) != want || m2i.rule != fp || i2l.rule != fp {
				m2i.mx, i2l.mx = t.build(dir, lv)
				m2i.rule, i2l.rule = fp, fp
			}
			m2i.ok.Store(true)
			i2l.ok.Store(true)
		})
	}
	return e.mx
}

// build constructs both tables by projecting the plane-wave basis functions
// onto the spherical-harmonic basis on a sphere of radius 0.9*side
// (enclosing every in-box point) about the box center. With g_t = e^{+mu
// zeta - i u (.)} the outgoing and E_t = e^{-mu zeta + i u (.)} the incoming
// basis function of kept term t = (k, j):
//
//   - M->I: X[t] = sum_s q_s g_t(s), and g_t is regular, so its expansion
//     coefficients g_n^m about the center give X[t] = sum (g_n^{-m} / c_n)
//     M_n^m over all m — in terms of the packed M, row t is g_t at the nodes
//     and column (n, m)'s samples are (c_m / c_n) w_q conj(Y_n^m(q)) /
//     R_n(a), c_0 = 1 and c_m = 2 otherwise: the projector's row, scaled;
//   - I->L: the pair (a_j, a_j + pi) puts (w_k / M_k) 2 Re(X[t] E_t) into the
//     incoming field, which is projected like any sampled field.
func (t *pwTables) build(dir geom.Direction, lv *pwLevel) (m2i, i2l []complex128) {
	b := t.b
	ml, nq, r := b.MLSize(), len(b.sph), lv.rule
	a := 0.9 * lv.side
	gOut := make([]float64, 2*r.total*nq) // M->I's P, panel-packed
	eIn := make([]float64, 2*r.total*nq)  // I->L's S planes
	for q, node := range b.sph {
		v := dir.RotateToUp(node.dir.Scale(a))
		for k, cosA := range r.cosA {
			e := math.Exp(r.mu[k] * v.Z)
			wk := r.w[k] / float64(len(cosA)) / e
			for j := range cosA {
				sin, cos := math.Sincos(r.u[k] * (v.X*cosA[j] + v.Y*r.sinA[k][j]))
				t := r.off[k] + j
				setPanel(gOut, r.total, nq, t, q, complex(e*cos, -e*sin))
				eIn[2*t*nq+q], eIn[(2*t+1)*nq+q] = wk*cos, -wk*sin
			}
		}
	}
	proj := b.projector(b.radReg, a, b.p)
	i2l = denseTable(ml, r.total, proj, eIn)
	// The projector's rows, scaled, are M->I's samples.
	samp := make([]float64, 2*ml*nq)
	idx := 0
	for n := 0; n <= b.p; n++ {
		f := 1 / b.cn[n]
		for m := 0; m <= n; m++ {
			for q := 0; q < nq; q++ {
				at := panelIndex(2*ml, nq, 2*idx, q)
				samp[2*idx*nq+q], samp[(2*idx+1)*nq+q] = f*proj[at], f*proj[at+1]
			}
			f = 2 / b.cn[n]
			idx++
		}
	}
	return denseTable(r.total, ml, gOut, samp), i2l
}

// ISize implements Kernel.
func (b *base) ISize(level int) int { return b.pw.Load().levels[level].rule.total }

// M2I implements Kernel: the level's (dir) table applied to a packed M,
// the one-right-hand-side M2IBatch.
func (b *base) M2I(dir geom.Direction, level int, in, out []complex128) {
	b.M2IBatch(dir, level, [][]complex128{in}, [][]complex128{out})
}

// I2I implements Kernel: the diagonal translation out[t] += in[t]*E_t(shift).
// shift is the world-frame vector from the old center to the new center.
// Outgoing expansions about c satisfy X_{c'}[t] = X_c[t] * E_t(c'-c); every
// shift the merge-and-shift DAG uses joins two root-relative box centres
// (package tree), a half-box lattice vector, so E is read from the level's
// shift table and the operator is the pointwise multiply the paper prices
// it as. A shift off the lattice or beyond its reach panics.
//
//dashmm:noalloc
func (b *base) I2I(dir geom.Direction, level int, shift geom.Point, in, out []complex128) {
	lv := b.pw.Load().levels[level]
	v := dir.RotateToUp(shift).Scale(1 / lv.side) // box units, direction's frame
	slot, ok := shiftSlotOf(v)
	if !ok {
		offLattice("I2I", shift, lv.side)
	}
	mulAcc(lv.shift.factors(slot, lv.rule), in, out)
}

// I2L implements Kernel: the level's (dir) table applied to a half wave,
// the one-right-hand-side I2LBatch.
func (b *base) I2L(dir geom.Direction, level int, in, out []complex128) {
	b.I2LBatch(dir, level, [][]complex128{in}, [][]complex128{out})
}
