// Package pwrule generates the Laplace plane-wave quadratures of the
// merge-and-shift FMM (internal/kernel, planewave.go): for a truncation
// order p, box-unit nodes u_k, weights w_k and even alpha counts m_k with
//
//	1/r ≈ Σ_k (w_k/m_k) Σ_{j<m_k} e^{-u_k z} e^{i u_k ρ cos(2πj/m_k - φ)}
//
// to relative error ε(p) = (√3/4)^p (Tolerance) — the error OrderForDigits
// budgets for the multipole truncation — for every target at height z ∈ [1, 4] and
// lateral offset ρ ≤ 4√2 above a source, in units of the box side: the
// geometry of every list-2 pair of one direction cone.
//
// The u rule is chosen from the functions r·e^{-uz}·J0(uρ) it integrates
// against 1 on a (z, ρ) training grid. Gauss–Legendre nodes on
// [0, ln(1/ε) + uMargin] are the candidates; a column-pivoted Householder QR
// picks candidates until the least-squares fit's worst relative error on the
// grid is at most ε/2, and the weights are that fit. Each m_k is then the
// smallest even count whose trapezoid error, 2|J_m(u_k ρ)| at the worst ρ,
// keeps the node's share of the remaining ε/2. Generate checks the whole
// discrete rule on a (z, ρ, φ) grid of its own before it returns it.
//
// Nothing here runs at evaluation time: pwrulegen writes the rules of
// every order into internal/kernel/pwrule_laplace.go (go generate), and the
// kernel's tests hold that file to a fresh generation.
package pwrule

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sphharm"
)

// The box-unit domain every rule covers.
const (
	ZMin   = 1.0
	ZMax   = 4.0
	RhoMax = 4 * math.Sqrt2

	// MinOrder and MaxOrder bound the orders Generate serves: 40 is past
	// OrderForDigits(12) = 34, the most digits the daemon admits.
	MinOrder = 2
	MaxOrder = 40
)

// uMargin extends the candidate interval past ln(1/ε): the tail
// ∫_U^∞ e^{-uz} J0(uρ) du is at most e^{-U} at z ≥ 1, and r ≤ √33 there, so
// the cut costs at most √33·e^{-4}·ε ≈ 0.1ε relative.
const uMargin = 4.0

// tolFloor is the smallest tolerance a rule is fit to: in float64 the fit of
// 1 stalls near 1.5e-15, so p = 40's (√3/4)^p = 2.9e-15, whose fit would have
// to reach half that, cannot be met; that order alone meets the floor
// instead.
const tolFloor = 4e-15

// Rule is a box-unit plane-wave rule: node u_k carries weight w_k and m_k
// alpha-nodes (even, so they pair as (a, a + π)).
type Rule struct {
	U, W []float64
	M    []int
}

// Terms is the number of complex coefficients one direction keeps: Σ m_k/2.
func (r Rule) Terms() int {
	t := 0
	for _, m := range r.M {
		t += m / 2
	}
	return t
}

// Tolerance is the relative error ε(p) = (√3/4)^p a rule of order p meets,
// or tolFloor where that is smaller.
func Tolerance(p int) float64 { return max(math.Pow(math.Sqrt(3)/4, float64(p)), tolFloor) }

// Grid is a (z, ρ, φ) sample set of the box-unit domain.
type Grid struct{ Z, Rho, Phi []float64 }

// CheckGrid is the grid Generate verifies its rule on: uniform in z, in ρ at
// about eight points per oscillation of the fastest node, and five φ.
func CheckGrid(r Rule) Grid {
	umax := 0.0
	for _, u := range r.U {
		umax = math.Max(umax, u)
	}
	nr := max(41, int(math.Ceil(8*umax*RhoMax/(2*math.Pi))))
	return Grid{
		Z:   linspace(ZMin, ZMax, 31),
		Rho: linspace(0, RhoMax, nr),
		Phi: []float64{0, 0.4, 1.1, 2.3, 2.9},
	}
}

// MaxError is the discrete rule's worst relative error |r·S - 1| on g, with
// S the sum over every node of its full trapezoid in alpha.
func MaxError(r Rule, g Grid) float64 {
	// The alpha sums do not depend on z: c[k] = (1/m_k) Σ_j cos(u_k ρ
	// cos(a_j - φ)) (the sines cancel pairwise, and the nodes a_j and a_j + π
	// give the same cosine, so half of them suffice), then S = Σ_k w_k
	// e^{-u_k z} c[k].
	c := make([]float64, len(r.U))
	ca := make([][]float64, len(r.U)) // cos(a_j - φ), j < m_k/2
	decay := make([]float64, len(g.Z)*len(r.U))
	for iz, z := range g.Z {
		for k, u := range r.U {
			decay[iz*len(r.U)+k] = r.W[k] * math.Exp(-u*z)
		}
	}
	worst := 0.0
	for _, phi := range g.Phi {
		for k, m := range r.M {
			ca[k] = ca[k][:0]
			for j := 0; j < m/2; j++ {
				ca[k] = append(ca[k], math.Cos(2*math.Pi*float64(j)/float64(m)-phi))
			}
		}
		for _, rho := range g.Rho {
			for k, u := range r.U {
				s := 0.0
				for _, cj := range ca[k] {
					s += math.Cos(u * rho * cj)
				}
				c[k] = 2 * s / float64(r.M[k])
			}
			for iz, z := range g.Z {
				s := dot(decay[iz*len(r.U):(iz+1)*len(r.U)], c)
				worst = math.Max(worst, math.Abs(math.Hypot(z, rho)*s-1))
			}
		}
	}
	return worst
}

// Generate returns the rule of order p, or an error if the rule it builds
// misses ε(p) on CheckGrid.
func Generate(p int) (Rule, error) {
	if p < MinOrder || p > MaxOrder {
		return Rule{}, fmt.Errorf("pwrule: order %d outside [%d, %d]", p, MinOrder, MaxOrder)
	}
	eps := Tolerance(p)
	umax := math.Log(1/eps) + uMargin
	// Candidates: enough Gauss–Legendre nodes that the whole set integrates
	// the fastest oscillation, e^{iρu} with ρ = RhoMax, far below ε.
	nc := int(math.Ceil(umax*RhoMax/2)) + 30
	xs, ws := sphharm.GaussLegendre(nc)
	cu, cw := make([]float64, nc), make([]float64, nc)
	for i := range xs {
		cu[i] = umax * (xs[i] + 1) / 2
		cw[i] = ws[i] * umax / 2
	}
	// Training grid: Chebyshev–Lobatto in z (the corners z = 1, 4 included)
	// and in ρ at about four points per oscillation of the fastest candidate.
	zs := lobatto(ZMin, ZMax, 16+int(umax/2))
	rhos := lobatto(0, RhoMax, 16+int(math.Ceil(4*umax*RhoMax/(2*math.Pi))))
	m := len(zs) * len(rhos)
	cols := make([][]float64, nc)
	for c := range cols {
		col := make([]float64, m)
		for ir, rho := range rhos {
			j0 := math.J0(cu[c] * rho)
			for iz, z := range zs {
				col[ir*len(zs)+iz] = math.Hypot(z, rho) * cw[c] * math.Exp(-cu[c]*z) * j0
			}
		}
		cols[c] = col
	}
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	sel, x, err := selectColumns(cols, ones, eps/2)
	if err != nil {
		return Rule{}, fmt.Errorf("pwrule: order %d: %w", p, err)
	}
	// Nodes in increasing u.
	order := make([]int, len(sel))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return cu[sel[order[i]]] < cu[sel[order[j]]] })
	r := Rule{U: make([]float64, len(sel)), W: make([]float64, len(sel)), M: make([]int, len(sel))}
	for i, o := range order {
		r.U[i] = cu[sel[o]]
		r.W[i] = cw[sel[o]] * x[o]
	}
	for k := range r.U {
		r.M[k] = alphaCount(r.U[k], r.W[k], eps/(2*float64(len(r.U))))
	}
	if e := MaxError(r, CheckGrid(r)); !(e <= eps) {
		return Rule{}, fmt.Errorf("pwrule: order %d: rule of %d nodes, %d terms misses ε = %.3g on the check grid: %.3g",
			p, len(r.U), r.Terms(), eps, e)
	}
	return r, nil
}

// alphaCount is the smallest even m whose trapezoid error in alpha,
// 2|J_m(uρ)|·|w|·e^{-uz}·r, stays at or below tol over the domain.
func alphaCount(u, w, tol float64) int {
	rhos := linspace(0, RhoMax, 129)
	zs := linspace(ZMin, ZMax, 31)
	// scale[i] = 2|w|·max_z e^{-uz}·r at rhos[i].
	scale := make([]float64, len(rhos))
	for i, rho := range rhos {
		for _, z := range zs {
			scale[i] = math.Max(scale[i], 2*math.Abs(w)*math.Exp(-u*z)*math.Hypot(z, rho))
		}
	}
	last := len(rhos) - 1
	for m := 2; ; m += 2 {
		// The end of the range rejects most counts with one Bessel call.
		if math.Abs(math.Jn(m, u*rhos[last]))*scale[last] > tol {
			continue
		}
		ok := true
		for i := last - 1; i >= 0 && ok; i-- {
			ok = math.Abs(math.Jn(m, u*rhos[i]))*scale[i] <= tol
		}
		if ok {
			return m
		}
	}
}

// selectColumns fits b by a subset of the columns: a column-pivoted
// Householder QR adds the column of largest remaining norm until the
// least-squares fit on the columns taken so far is within tol of b in every
// row. It returns the columns taken, in pivot order, and the fit's
// coefficients.
func selectColumns(cols [][]float64, b []float64, tol float64) (sel []int, x []float64, err error) {
	m, n := len(b), len(cols)
	q := make([][]float64, n) // working copy, reduced in place
	for j, c := range cols {
		q[j] = append([]float64(nil), c...)
	}
	qb := append([]float64(nil), b...)
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	// norms[j] is |q[j][k:]|², downdated by each step's row and recomputed
	// when the downdate has cancelled most of exact[j], its last exact value.
	norms, exact := make([]float64, n), make([]float64, n)
	for j, c := range q {
		norms[j] = dot(c, c)
		exact[j] = norms[j]
	}
	rdiag := make([]float64, 0, n)
	v := make([]float64, m)
	for k := 0; k < n && k < m; k++ {
		best := k
		for j := k; j < n; j++ {
			if norms[j] < 1e-8*exact[j] {
				norms[j] = dot(q[j][k:], q[j][k:])
				exact[j] = norms[j]
			}
			if norms[j] > norms[best] {
				best = j
			}
		}
		bestNorm := dot(q[best][k:], q[best][k:])
		if bestNorm == 0 {
			break
		}
		q[k], q[best] = q[best], q[k]
		perm[k], perm[best] = perm[best], perm[k]
		norms[k], norms[best] = norms[best], norms[k]
		exact[k], exact[best] = exact[best], exact[k]
		// The reflector taking q[k][k:] to alpha·e_1.
		col := q[k][k:]
		alpha := -math.Copysign(math.Sqrt(bestNorm), col[0])
		hv := v[:len(col)]
		copy(hv, col)
		hv[0] -= alpha
		vv := dot(hv, hv)
		for j := k + 1; j < n; j++ {
			c := q[j][k:]
			axpy(-2*dot(hv, c)/vv, hv, c)
			norms[j] -= c[0] * c[0]
		}
		axpy(-2*dot(hv, qb[k:])/vv, hv, qb[k:])
		rdiag = append(rdiag, alpha)
		// R's column k is q[k][:k] above the diagonal, alpha on it.
		if math.Sqrt(dot(qb[k+1:], qb[k+1:])/float64(m)) > tol {
			continue // the rms bounds the worst row from below
		}
		x = make([]float64, k+1)
		for i := k; i >= 0; i-- {
			s := qb[i]
			for j := i + 1; j <= k; j++ {
				s -= q[j][i] * x[j]
			}
			x[i] = s / rdiag[i]
		}
		worst := 0.0
		for row := range b {
			s := b[row]
			for j := 0; j <= k; j++ {
				s -= cols[perm[j]][row] * x[j]
			}
			worst = math.Max(worst, math.Abs(s))
		}
		if worst <= tol {
			return perm[:k+1], x, nil
		}
	}
	return nil, nil, fmt.Errorf("no subset of the %d candidates fits within %.3g", n, tol)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func axpy(f float64, x, y []float64) {
	for i, v := range x {
		y[i] += f * v
	}
}

// linspace is n points evenly spaced on [a, b], ends included.
func linspace(a, b float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	return out
}

// lobatto is the n Chebyshev–Lobatto points of [a, b], ends included.
func lobatto(a, b float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*(1-math.Cos(math.Pi*float64(i)/float64(n-1)))/2
	}
	return out
}
