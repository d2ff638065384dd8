package kernel

import (
	"unsafe"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// Dense operators as real-linear tables.
//
// The vectors the dense far-field operators work on — packed M and L
// expansions, half plane waves — stand for real fields: the coefficients
// that are not stored are the conjugates of the ones that are. An operator
// between two such vectors is linear over the reals, not over the complex
// numbers,
//
//	out_i += a_ij Re x_j + b_ij Im x_j,    a_ij, b_ij complex,
//
// four real coefficients per entry where the full complex operator spends
// one complex multiply on each of 3.3–3.6x as many entries. Read as a real
// (2·rows) x (2·cols) matrix R on the interleaved [Re x0, Im x0, Re x1, …]
// — R[2i][2j] = Re a_ij, R[2i][2j+1] = Re b_ij, R[2i+1][2j] = Im a_ij,
// R[2i+1][2j+1] = Im b_ij — the operator is a plain real matrix-vector
// product on the vectors' own memory. A table stores R column-major in
// panels of panelRows real rows (panelIndex), the last panel at its own
// height, in a []complex128 of 2·rows·cols elements, so OperatorTable, the
// store codec and the cache keep their types and sizes. M->M, M->L and L->L
// (api.go), the batched M->L (batch.go), M->I and I->L (planewave.go) are
// all one applyTable on a table from denseTable, and denseTable is itself
// one product on the same kernel.
//
// Both run on one dense kernel per process (denseLoop), bound by the pair
// loops' CPU probe: the AVX-512 or AVX2+FMA forms of dense_amd64.s, or the
// portable walk below, which is also their oracle. Each is a tile — up to
// tileRows rows of tileRHS right-hand sides, every panel column loaded once
// for all of them and broadcast inputs, so no shuffles and no horizontal
// sums — and a GEMV for one right-hand side. On AVX-512 the tile applies
// the M->L table (55 x 55 at three digits) in a block of 16 at 0.59 µs per
// right-hand side where the GEMV takes 1.25, and an M->I table (268 x 55)
// streamed from memory in a block of 16 at 3.2 µs where one GEMV takes 28
// streamed and 6.2 in cache (BenchmarkDense, medians of five alternating
// runs on a 2-vCPU Xeon guest; the row-dot kernel this replaced took 1.24,
// 2.06, 9.1, 32 and 8.5). A single apply is bound by its table's traffic
// from L2 or beyond, so the executor applies M->L by lattice offset
// (M2LBatch) and M->I and I->L by (level, direction) in blocks of
// right-hand sides (M2IBatch, I2LBatch).

// denseLoop names the dense kernel behind applyTable and denseTable — the
// portable loops here, or the vector forms of dense_amd64.s — and the point
// block's binding (point.go). Unlike the pair loops it is one binding per
// process, not per kernel.
type denseLoop uint8

const (
	denseGo     denseLoop = iota // portable loops: the fallback and the oracle of the other two
	denseAVX2                    // dense_amd64.s: four float64 lanes, FMA
	denseAVX512                  // dense_amd64.s: eight float64 lanes, masked tail
)

// String is the name DenseKernel reports.
func (l denseLoop) String() string { return [...]string{"go", "avx2", "avx512"}[l] }

// DenseKernel names the implementation of k's dense far-field operators
// (M->M, M->L, L->L, M->I, I->L and their table builds) and of its point
// operators (S->M, S->L, M->T, L->T: the point block of point.go binds with
// the dense kernel): "avx512", "avx2" or "go" (the portable loops; also any
// kernel that is not built in). It is what the CPU offers, probed once per
// process; nothing selects it.
func DenseKernel(k Kernel) string {
	if _, ok := k.(*base); ok {
		return bestDense.String()
	}
	return denseGo.String()
}

const (
	// panelRows is the height of a table panel: the rows one tile holds,
	// two AVX-512 registers of float64.
	panelRows = 16
	// tileRHS is the right-hand sides one tile carries.
	tileRHS = 4
	// tileRows is the most rows one tile takes: two panels.
	tileRows = 2 * panelRows
	// kBlock is the most columns one tile takes: 32 KB of two panels.
	kBlock = 128
	// tableLayout stamps every table of this layout (tableEntry.rule): an
	// imported table without it — one of the row layout before the panels,
	// whatever its size — is rebuilt. Plane-wave tables carry it xored
	// into their rule's fingerprint.
	tableLayout uint64 = 0x70616e656c31363a // "panel16:"
)

// panelIndex is where entry (i, c) of an m x k real matrix sits in its
// panel layout: panel i/panelRows starts at its first row times k, and
// holds its columns one after the other, each of the panel's rows.
func panelIndex(m, k, i, c int) int {
	p := i &^ (panelRows - 1)
	return p*k + c*min(panelRows, m-p) + i - p
}

// floats is the float64 view of complex values, real and imaginary parts
// interleaved: the vectors and tables the dense kernel multiplies.
//
//dashmm:noalloc
func floats(v []complex128) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(v))), 2*len(v))
}

// applyTable accumulates outs[r][:rows] += T ins[r][:cols] for one rows x
// cols table shared by every right-hand side, by the dense kernel this
// process bound. The vectors may be longer than the table: an M->L table
// of a far offset is the top-left block of the full-order operator
// (m2lOrder), and reads a prefix of each M and adds into a prefix of each L.
//
//dashmm:noalloc
func applyTable(tab []complex128, rows, cols int, ins, outs [][]complex128) {
	applyOn(bestDense, tab, rows, cols, ins, outs)
}

// applyOn is applyTable on the named dense kernel: every tile of tileRHS
// right-hand sides multiplies the table tileRows rows and kBlock columns
// at a time, so the block stays in L1 across the tiles; the last len(ins)
// mod tileRHS then run one GEMV each over the whole table. applyOn(denseGo,
// …) is the oracle of the vector forms.
//
//dashmm:noalloc
func applyOn(l denseLoop, tab []complex128, rows, cols int, ins, outs [][]complex128) {
	if len(ins) == 0 || rows == 0 || cols == 0 {
		return
	}
	k, m := 2*cols, 2*rows
	a := floats(tab)[:m*k]
	tiled := len(ins) - len(ins)%tileRHS
	for i := 0; i < m && tiled > 0; i += tileRows {
		h := min(tileRows, m-i)
		h0 := min(panelRows, h)
		p0, p1 := a[i*k:(i+h0)*k], a[(i+h0)*k:(i+h)*k]
		// Tile r/tileRHS prefetches k lines of the next rows, so a block of
		// 16 right-hand sides fetches all tileRows·k of them.
		next := uintptr(unsafe.Pointer(&a[i*k])) + uintptr(h*k*8)
		for c := 0; c < k; c += kBlock {
			kc := min(kBlock, k-c)
			for r := 0; r < tiled; r += tileRHS {
				var xs, ys [tileRHS][]float64
				for t := range xs {
					xs[t], ys[t] = floats(ins[r+t])[c:c+kc], floats(outs[r+t])[i:i+h]
				}
				pf := next + uintptr((r/tileRHS*k+c)*64)
				tileOn(l, p0[c*h0:(c+kc)*h0], p1[c*(h-h0):(c+kc)*(h-h0)], pf, h, kc, &xs, &ys)
			}
		}
	}
	for r := tiled; r < len(ins); r++ {
		gemvOn(l, a, m, k, floats(ins[r]), floats(outs[r]))
	}
}

// gemvGo is the portable GEMV, y[:m] += A x[:k] for the m x k panel-packed
// a: the binding without the assembly and the oracle of the vector ones.
// It is their walk — a panel's rows summed in place, column after column —
// with the sums in a stack array, four columns a pass.
//
//dashmm:noalloc
func gemvGo(a []float64, m, k int, x, y []float64) {
	x = x[:k]
	for i := 0; i < m; i += panelRows {
		h := min(panelRows, m-i)
		p := a[i*k : (i+h)*k]
		var acc [panelRows]float64
		s := acc[:h]
		c := 0
		for ; c+4 <= k; c += 4 {
			x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
			q := p[c*h : (c+4)*h]
			c0, c1, c2, c3 := q[:len(s)], q[h:][:len(s)], q[2*h:][:len(s)], q[3*h:][:len(s)]
			for r := range s {
				s[r] += c0[r]*x0 + c1[r]*x1 + c2[r]*x2 + c3[r]*x3
			}
		}
		for ; c < k; c++ {
			xc, col := x[c], p[c*h:(c+1)*h]
			col = col[:len(s)]
			for r := range s {
				s[r] += col[r] * xc
			}
		}
		out := y[i : i+h]
		out = out[:len(s)]
		for r, v := range s {
			out[r] += v
		}
	}
}

// tileGo is the portable tile: per panel two gemv2Go, each sharing the
// table's loads between two right-hand sides.
//
//dashmm:noalloc
func tileGo(p0, p1 []float64, h, k int, xs, ys *[tileRHS][]float64) {
	h0 := min(h, panelRows)
	for t := 0; t < tileRHS; t += 2 {
		gemv2Go(p0, h0, k, xs[t], xs[t+1], ys[t], ys[t+1])
		if h > h0 {
			gemv2Go(p1, h-h0, k, xs[t], xs[t+1], ys[t][h0:], ys[t+1][h0:])
		}
	}
}

// gemv2Go is gemvGo for two right-hand sides at once: y += A x and
// y2 += A x2, each table element loaded once for both.
//
//dashmm:noalloc
func gemv2Go(a []float64, m, k int, x, x2, y, y2 []float64) {
	x, x2 = x[:k], x2[:k]
	for i := 0; i < m; i += panelRows {
		h := min(panelRows, m-i)
		p := a[i*k : (i+h)*k]
		var acc, acc2 [panelRows]float64
		s, s2 := acc[:h], acc2[:h]
		c := 0
		for ; c+4 <= k; c += 4 {
			x0, x1, x2c, x3 := x[c], x[c+1], x[c+2], x[c+3]
			z0, z1, z2, z3 := x2[c], x2[c+1], x2[c+2], x2[c+3]
			q := p[c*h : (c+4)*h]
			c0, c1, c2, c3 := q[:len(s)], q[h:][:len(s)], q[2*h:][:len(s)], q[3*h:][:len(s)]
			s2 = s2[:len(s)]
			for r := range s {
				v0, v1, v2, v3 := c0[r], c1[r], c2[r], c3[r]
				s[r] += v0*x0 + v1*x1 + v2*x2c + v3*x3
				s2[r] += v0*z0 + v1*z1 + v2*z2 + v3*z3
			}
		}
		for ; c < k; c++ {
			xc, zc, col := x[c], x2[c], p[c*h:(c+1)*h]
			col, s2 = col[:len(s)], s2[:len(s)]
			for r := range s {
				s[r] += col[r] * xc
				s2[r] += col[r] * zc
			}
		}
		out, out2 := y[i:i+h], y2[i:i+h]
		out, out2 = out[:len(s)], out2[:len(s)]
		for r := range s {
			out[r] += s[r]
			out2[r] += s2[r]
		}
	}
}

// denseTable is the one table builder. Every dense operator here factors
// through samples at the nq sphere nodes: complex sample s_jq = A + iB
// holds the real field values A and B that Re x_j = 1 and Im x_j = 1
// produce at node q, and complex projector row p_i turns node samples into
// output i. So
//
//	a_ij = sum_q p_iq Re s_jq,    b_ij = sum_q p_iq Im s_jq,
//
// and the real table is R = P S for the real (2·rows) x nq projector P,
// rows Re p_i and Im p_i, and the nq x (2·cols) samples S, columns Re s_j
// and Im s_j: the source basis is sampled once per node, not once per
// column. The producers write P in panel layout (setPanel) and S as planes
// (s[2j·nq+q] = Re s_jq, s[(2j+1)·nq+q] = Im s_jq), so each panel of R is
// the tile's product of P's panel with tileRHS columns of S at a time —
// the panel's columns of R are contiguous, so they are the tile's outputs.
func denseTable(rows, cols int, p, s []float64) []complex128 {
	return denseTableOn(bestDense, rows, cols, p, s)
}

// denseTableOn is denseTable on the named dense kernel.
func denseTableOn(l denseLoop, rows, cols int, p, s []float64) []complex128 {
	m, n := 2*rows, 2*cols
	nq := len(p) / m
	tab := make([]complex128, rows*n)
	r := floats(tab)
	for i := 0; i < m; i += panelRows {
		h := min(panelRows, m-i)
		pp, rp := p[i*nq:(i+h)*nq], r[i*n:(i+h)*n]
		c := 0
		for ; c+tileRHS <= n; c += tileRHS {
			var xs, ys [tileRHS][]float64
			for t := range xs {
				xs[t], ys[t] = s[(c+t)*nq:(c+t+1)*nq], rp[(c+t)*h:(c+t+1)*h]
			}
			tileOn(l, pp, nil, 0, h, nq, &xs, &ys)
		}
		for ; c < n; c++ {
			gemvOn(l, pp, h, nq, s[c*nq:(c+1)*nq], rp[c*h:(c+1)*h])
		}
	}
	return tab
}

// setPanel stores the complex value v as rows 2i and 2i+1, column q, of
// the panel-packed (2·rows) x nq real matrix p (denseTable's P).
func setPanel(p []float64, rows, nq, i, q int, v complex128) {
	at := panelIndex(2*rows, nq, 2*i, q)
	p[at], p[at+1] = real(v), imag(v)
}

// projector returns the TriSize(p) x nq complex rows that project samples
// on the sphere of radius a onto the packed coefficients of degree up to p
// (p ≤ b.p) of the radial family rf, by orthogonality, p_iq = w_q
// conj(Y_i(q)) / rf_{n_i}(a): denseTable's panel-packed P. Row i does not
// depend on p, so a lower p's P is the first rows of a higher one's, each
// in its own panel layout.
func (b *base) projector(rf radialFunc, a float64, p int) []float64 {
	ml, nq := sphharm.TriSize(p), len(b.sph)
	rad := make([]float64, b.p+1)
	rf(a, rad)
	proj := make([]float64, 2*ml*nq)
	for q, node := range b.sph {
		idx := 0
		for n := 0; n <= p; n++ {
			f := node.w / rad[n]
			for m := 0; m <= n; m++ {
				setPanel(proj, ml, nq, idx, q, complex(f*real(node.y[idx]), -f*imag(node.y[idx])))
				idx++
			}
		}
	}
	return proj
}

// translationTable builds a translation by spectral projection — an
// expansion in the radial family inRF about the origin, re-expanded in outRF
// about `to` through the sphere of radius a (the field sampled on the
// sphere and projected onto outRF by orthogonality).
//
// The table maps the coefficients of degree up to p (p ≤ b.p) to those of
// degree up to p: TriSize(p) square. The sphere rule is the kernel's at
// every p, so each entry is the same sum over the same nodes as in the
// order-b.p table, whose top-left block this is.
func (b *base) translationTable(to geom.Point, a float64, inRF, outRF radialFunc, p int) []complex128 {
	ml := sphharm.TriSize(p)
	return denseTable(ml, ml, b.projector(outRF, a, p), b.translationSamples(to, a, inRF, p))
}

// translationSamples is translationTable's S: the samples, as planes, of
// the input coefficients of degree up to p at the sphere nodes.
// Coefficient x_n^m stands for the field c_m rad_n Re(x Y_n^m), c_0 = 1 and
// c_m = 2 otherwise, whose samples for Re x = 1 and Im x = 1 are the two
// parts of c_m rad_n conj(Y_n^m).
func (b *base) translationSamples(to geom.Point, a float64, inRF radialFunc, p int) []float64 {
	ml, nq := sphharm.TriSize(p), len(b.sph)
	ws := b.newWorkspace()
	samp := make([]float64, 2*ml*nq)
	for q, node := range b.sph {
		v := to.Add(node.dir.Scale(a))
		x, y, z, r := sphharm.Direction(v.X, v.Y, v.Z)
		inRF(r, ws.rad)
		b.coef.YnmPackedXYZ(x, y, z, ws.ylm)
		idx := 0
		for n := 0; n <= p; n++ {
			f := ws.rad[n]
			for m := 0; m <= n; m++ {
				samp[2*idx*nq+q], samp[(2*idx+1)*nq+q] = f*real(ws.ylm[idx]), -f*imag(ws.ylm[idx])
				f = 2 * ws.rad[n]
				idx++
			}
		}
	}
	return samp
}
