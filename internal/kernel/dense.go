package kernel

import (
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
// one complex multiply on each of 3.3–3.6x as many entries. A table of rows
// x cols entries is a []complex128 of 2*rows*cols elements, row i being its
// cols a's followed by its cols b's — an element holds two of the four real
// coefficients, so OperatorTable, the store codec and the cache keep their
// types. M->M, M->L and L->L (api.go), the batched M->L (batch.go), M->I and
// I->L (planewave.go) are all one applyTable on a table from denseTable.
//
// Both run on one dense kernel per process (denseLoop), bound by the pair
// loops' CPU probe: the AVX-512 or AVX2+FMA forms of dense_amd64.s, or the
// portable loops below, which are also their oracle. With its table in
// cache the scalar apply is compute-bound at about 3 GFLOP/s: an M->I
// (268 x 55 at three digits) takes 38 µs, the AVX2 form 7.4 µs, the
// AVX-512 form 7.1 µs. Streamed from memory (BenchmarkDense cycles through
// 64 tables) they take 51, 20 and 22 µs (medians of five to seven on a
// 2-vCPU 2.1 GHz Xeon guest), so one plane-wave apply is bound by its
// 0.47 MB table's traffic. The executor therefore applies M->I and I->L by
// (level, direction) in blocks of right-hand sides (M2IBatch, I2LBatch),
// which stream the table once per block: BenchmarkDense's m2i_batch16 takes
// 8.1 µs per right-hand side on AVX-512 where m2i_streamed takes 22, a
// little above the in-cache apply's 7.1.

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

// applyTable accumulates outs[r] += T ins[r] for one table shared by every
// right-hand side, by the dense kernel this process bound.
//
//dashmm:noalloc
func applyTable(tab []complex128, ins, outs [][]complex128) {
	applyOn(bestDense, tab, ins, outs)
}

// applyGo is the portable apply: the binding without the assembly and the
// oracle of the vector ones. Two right-hand sides travel per pass over the
// table, so a batch streams it once per pair and each row fetched feeds four
// independent accumulator chains; an odd one out splits its a and b terms
// into four chains of its own.
//
//dashmm:noalloc
func applyGo(tab []complex128, ins, outs [][]complex128) {
	if len(ins) == 0 {
		return
	}
	cols, rows := len(ins[0]), len(outs[0])
	r := 0
	for ; r+2 <= len(ins); r += 2 {
		in0, in1 := ins[r][:cols], ins[r+1][:cols]
		out0, out1 := outs[r][:rows], outs[r+1][:rows]
		for i := range out0 {
			ra := tab[2*i*cols : (2*i+1)*cols : (2*i+1)*cols]
			rb := tab[(2*i+1)*cols : (2*i+2)*cols : (2*i+2)*cols]
			rb, in0, in1 := rb[:len(ra)], in0[:len(ra)], in1[:len(ra)]
			var s0r, s0i, s1r, s1i float64
			for j, a := range ra {
				b := rb[j]
				xr, xi := real(in0[j]), imag(in0[j])
				s0r += real(a)*xr + real(b)*xi
				s0i += imag(a)*xr + imag(b)*xi
				yr, yi := real(in1[j]), imag(in1[j])
				s1r += real(a)*yr + real(b)*yi
				s1i += imag(a)*yr + imag(b)*yi
			}
			out0[i] += complex(s0r, s0i)
			out1[i] += complex(s1r, s1i)
		}
	}
	if r < len(ins) {
		in, out := ins[r][:cols], outs[r][:rows]
		for i := range out {
			ra := tab[2*i*cols : (2*i+1)*cols : (2*i+1)*cols]
			rb := tab[(2*i+1)*cols : (2*i+2)*cols : (2*i+2)*cols]
			rb, in := rb[:len(ra)], in[:len(ra)]
			var ar, ai, br, bi float64
			for j, a := range ra {
				b := rb[j]
				xr, xi := real(in[j]), imag(in[j])
				ar += real(a) * xr
				ai += imag(a) * xr
				br += real(b) * xi
				bi += imag(b) * xi
			}
			out[i] += complex(ar+br, ai+bi)
		}
	}
}

// denseTable is the one table builder. Every dense operator here factors
// through samples at the nq sphere nodes: samp[j*nq+q] = A + iB holds the
// real field values A and B that Re x_j = 1 and Im x_j = 1 produce at node
// q, and row i of proj (rows x nq) turns node samples into output i. So
//
//	a_ij = sum_q proj[i*nq+q] Re samp[j*nq+q],
//	b_ij = sum_q proj[i*nq+q] Im samp[j*nq+q]:
//
// the source basis is sampled once per node, not once per column.
func denseTable(rows, cols int, proj, samp []complex128) []complex128 {
	nq := len(proj) / rows
	tab := make([]complex128, 2*rows*cols)
	for i := 0; i < rows; i++ {
		pi := proj[i*nq : (i+1)*nq]
		for j := 0; j < cols; j++ {
			tab[2*i*cols+j], tab[(2*i+1)*cols+j] = dotOn(bestDense, pi, samp[j*nq:(j+1)*nq])
		}
	}
	return tab
}

// dotGo is the portable dot of denseTable, a = Σ p_q Re s_q and
// b = Σ p_q Im s_q over q < len(p): the binding without the assembly and the
// oracle of the vector ones.
func dotGo(p, s []complex128) (a, b complex128) {
	var ar, ai, br, bi float64
	for q, sv := range s[:len(p)] {
		ar += real(p[q]) * real(sv)
		ai += imag(p[q]) * real(sv)
		br += real(p[q]) * imag(sv)
		bi += imag(p[q]) * imag(sv)
	}
	return complex(ar, ai), complex(br, bi)
}

// projector returns the MLSize() x nq rows that project samples on the
// sphere of radius a onto packed coefficients of the radial family rf, by
// orthogonality: P[i*nq+q] = w_q conj(Y_i(q)) / rf_{n_i}(a).
func (b *base) projector(rf radialFunc, a float64) []complex128 {
	nq := len(b.sph)
	rad := make([]float64, b.p+1)
	rf(a, rad)
	proj := make([]complex128, b.MLSize()*nq)
	for q, node := range b.sph {
		idx := 0
		for n := 0; n <= b.p; n++ {
			f := node.w / rad[n]
			for m := 0; m <= n; m++ {
				proj[idx*nq+q] = complex(f*real(node.y[idx]), -f*imag(node.y[idx]))
				idx++
			}
		}
	}
	return proj
}

// translationTable builds the operator translate applies — an expansion in
// the radial family inRF about the origin, re-expanded in outRF about `to`
// through the sphere of radius a. Coefficient x_n^m stands for the field
// c_m rad_n Re(x Y_n^m), c_0 = 1 and c_m = 2 otherwise, whose samples for
// Re x = 1 and Im x = 1 are the two parts of c_m rad_n conj(Y_n^m).
func (b *base) translationTable(to geom.Point, a float64, inRF, outRF radialFunc) []complex128 {
	ml, nq := b.MLSize(), len(b.sph)
	ws := b.newWorkspace()
	samp := make([]complex128, ml*nq)
	for q, node := range b.sph {
		v := to.Add(node.dir.Scale(a))
		x, y, z, r := sphharm.Direction(v.X, v.Y, v.Z)
		inRF(r, ws.rad)
		b.coef.YnmPackedXYZ(x, y, z, ws.ylm)
		idx := 0
		for n := 0; n <= b.p; n++ {
			f := ws.rad[n]
			for m := 0; m <= n; m++ {
				samp[idx*nq+q] = complex(f*real(ws.ylm[idx]), -f*imag(ws.ylm[idx]))
				f = 2 * ws.rad[n]
				idx++
			}
		}
	}
	return denseTable(ml, ml, b.projector(outRF, a), samp)
}
