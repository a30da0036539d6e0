package tensor

import "fmt"

// MatMul returns the matrix product a·b, where a is (m×k) and b is (k×n).
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mmDims(a, b)
	out := New(m, n)
	matMulInto(out.data, a.data, b.data, m, k, n)
	return out
}

// MatMulInto writes a·b into dst, which must be (m×n); dst is fully
// overwritten. The kernel unrolls the k (accumulation) dimension four ways
// so each output row is loaded and stored once per four k-steps instead of
// once per step; the per-element contribution sequence stays the exact
// ascending-k order of the classic i-k-j loop — including the skip of a's
// exact zeros — so float64 results are bit-identical to the historical
// unblocked kernel.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := mmDims(a, b)
	checkDst("MatMulInto", dst, m, n)
	matMulInto(dst.data, a.data, b.data, m, k, n)
}

func mmDims(a, b *Tensor) (m, k, n int) {
	m, ka := mat2(a, "MatMul lhs")
	kb, n := mat2(b, "MatMul rhs")
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch: %v vs %v", a.shape, b.shape))
	}
	return m, ka, n
}

// MatMulTransA returns aᵀ·b where a is (k×m) and b is (k×n); the result is
// (m×n). Used by backward passes (dW = Xᵀ·dY).
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := mmTransADims(a, b)
	out := New(m, n)
	matMulTransAInto(out.data, a.data, b.data, k, m, n)
	return out
}

// MatMulTransAInto writes aᵀ·b into dst (fully overwritten), with the same
// bit-exact k-unrolled accumulation as MatMulInto.
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m, n := mmTransADims(a, b)
	checkDst("MatMulTransAInto", dst, m, n)
	matMulTransAInto(dst.data, a.data, b.data, k, m, n)
}

func mmTransADims(a, b *Tensor) (k, m, n int) {
	k, m = mat2(a, "MatMulTransA lhs")
	kb, n := mat2(b, "MatMulTransA rhs")
	if k != kb {
		panic(fmt.Sprintf("tensor: MatMulTransA dimension mismatch: %v vs %v", a.shape, b.shape))
	}
	return k, m, n
}

// MatMulTransB returns a·bᵀ where a is (m×k) and b is (n×k); the result is
// (m×n). Used by backward passes (dX = dY·Wᵀ).
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := mmTransBDims(a, b)
	out := New(m, n)
	matMulTransBInto(out.data, a.data, b.data, m, k, n, false)
	return out
}

// MatMulTransBInto writes a·bᵀ into dst (fully overwritten). Both operands
// stream k-contiguous rows, so the kernel computes 4×4 output tiles
// entirely in registers; every inner product accumulates in ascending-k
// order (this layout has never skipped zeros), bit-identical to the plain
// dot-product loop.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := mmTransBDims(a, b)
	checkDst("MatMulTransBInto", dst, m, n)
	matMulTransBInto(dst.data, a.data, b.data, m, k, n, false)
}

// MatMulTransBAccInto accumulates a·bᵀ into dst: dst += a·bᵀ. Each inner
// product is formed in registers before its single accumulation, matching
// MatMulTransB followed by AccumInto bit for bit.
func MatMulTransBAccInto(dst, a, b *Tensor) {
	m, k, n := mmTransBDims(a, b)
	checkDst("MatMulTransBAccInto", dst, m, n)
	matMulTransBInto(dst.data, a.data, b.data, m, k, n, true)
}

func mmTransBDims(a, b *Tensor) (m, k, n int) {
	m, k = mat2(a, "MatMulTransB lhs")
	n, kb := mat2(b, "MatMulTransB rhs")
	if k != kb {
		panic(fmt.Sprintf("tensor: MatMulTransB dimension mismatch: %v vs %v", a.shape, b.shape))
	}
	return m, k, n
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	out := New(a.Dim(1), a.Dim(0))
	TransposeInto(out, a)
	return out
}

// TransposeInto writes the transpose of a into dst, which must be (n×m)
// for an (m×n) input and must not alias a.
func TransposeInto(dst, a *Tensor) {
	m, n := mat2(a, "Transpose")
	checkDst("TransposeInto", dst, n, m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			dst.data[j*m+i] = v
		}
	}
}

func mat2(t *Tensor, what string) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s wants a 2-D tensor, got shape %v", what, t.shape))
	}
	return t.shape[0], t.shape[1]
}

func checkDst(what string, dst *Tensor, m, n int) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want (%dx%d)", what, dst.shape, m, n))
	}
}

// matMulInto computes out = a·b by zeroing out and accumulating rank-1
// contributions in ascending-k order, four k-steps at a time. The fused
// four-term update is a single left-associative expression, so its
// addition tree is exactly the sequential += chain of the classic loop;
// a k-step whose a element is an exact zero is skipped, as it always was.
func matMulInto(out, a, b []float64, m, k, n int) {
	if rowsParallel(m, k*n) {
		parallelRows(m, k*n, func(lo, hi int) { matMulRange(out, a, b, k, n, lo, hi) })
		return
	}
	matMulRange(out, a, b, k, n, 0, m)
}

// matMulRange computes rows [lo, hi) of matMulInto's output.
func matMulRange(out, a, b []float64, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		clear(orow)
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			av0, av1, av2, av3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				axpy4Rows(orow,
					b[(kk+0)*n:(kk+1)*n], b[(kk+1)*n:(kk+2)*n],
					b[(kk+2)*n:(kk+3)*n], b[(kk+3)*n:(kk+4)*n],
					av0, av1, av2, av3)
				continue
			}
			// A zero lane: fall back to per-step rows so zero skips
			// keep the historical contribution sequence exactly.
			for u := 0; u < 4; u++ {
				if av := arow[kk+u]; av != 0 {
					axpyRow(orow, av, b[(kk+u)*n:(kk+u+1)*n])
				}
			}
		}
		for ; kk < k; kk++ {
			if av := arow[kk]; av != 0 {
				axpyRow(orow, av, b[kk*n:(kk+1)*n])
			}
		}
	}
}

// matMulTransAInto computes out = aᵀ·b for a (k×m) and b (k×n) with the
// same zeroed-then-accumulate, k-unrolled-by-4, zero-skipping structure as
// matMulInto (a's lanes are strided column loads here).
func matMulTransAInto(out, a, b []float64, k, m, n int) {
	if rowsParallel(m, k*n) {
		parallelRows(m, k*n, func(lo, hi int) { matMulTransARange(out, a, b, k, m, n, lo, hi) })
		return
	}
	matMulTransARange(out, a, b, k, m, n, 0, m)
}

// matMulTransARange computes rows [lo, hi) of matMulTransAInto's output.
func matMulTransARange(out, a, b []float64, k, m, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			av0 := a[(kk+0)*m+i]
			av1 := a[(kk+1)*m+i]
			av2 := a[(kk+2)*m+i]
			av3 := a[(kk+3)*m+i]
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				axpy4Rows(orow,
					b[(kk+0)*n:(kk+1)*n], b[(kk+1)*n:(kk+2)*n],
					b[(kk+2)*n:(kk+3)*n], b[(kk+3)*n:(kk+4)*n],
					av0, av1, av2, av3)
				continue
			}
			for u := 0; u < 4; u++ {
				if av := a[(kk+u)*m+i]; av != 0 {
					axpyRow(orow, av, b[(kk+u)*n:(kk+u+1)*n])
				}
			}
		}
		for ; kk < k; kk++ {
			if av := a[kk*m+i]; av != 0 {
				axpyRow(orow, av, b[kk*n:(kk+1)*n])
			}
		}
	}
}

// axpyRow performs orow += av * brow, the single-k-step contribution.
func axpyRow(orow []float64, av float64, brow []float64) {
	if useSIMD {
		axpy1SIMD(orow, brow, av)
		return
	}
	for j, bv := range brow {
		orow[j] += av * bv
	}
}

// axpy4Rows performs the fused four-k-step update
//
//	orow[j] = orow[j] + av0*b0[j] + av1*b1[j] + av2*b2[j] + av3*b3[j]
//
// dispatching to the SIMD kernel when available; both paths produce the
// identical left-associated addition chain per element.
func axpy4Rows(orow, b0, b1, b2, b3 []float64, av0, av1, av2, av3 float64) {
	if useSIMD {
		axpy4SIMD(orow, b0, b1, b2, b3, av0, av1, av2, av3)
		return
	}
	for j := range orow {
		orow[j] = orow[j] + av0*b0[j] + av1*b1[j] + av2*b2[j] + av3*b3[j]
	}
}

// matMulTransBInto computes out (+)= a·bᵀ with 2×4 register tiles: eight
// inner products accumulate simultaneously over ascending k, then each is
// stored (or added, in accumulate mode) exactly once. Two rows by four
// columns measures fastest here — enough operand reuse to cut memory
// traffic, few enough live accumulators to stay in registers.
func matMulTransBInto(out, a, b []float64, m, k, n int, accum bool) {
	if rowsParallel(m, k*n) {
		parallelRows(m, k*n, func(lo, hi int) { matMulTransBRange(out, a, b, k, n, accum, lo, hi) })
		return
	}
	matMulTransBRange(out, a, b, k, n, accum, 0, m)
}

// matMulTransBRange computes rows [lo, hi) of matMulTransBInto's output.
func matMulTransBRange(out, a, b []float64, k, n int, accum bool, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			kk := 0
			if useSIMD && k >= 4 {
				k4 := k &^ 3
				var acc [8]float64
				dot2x4SIMD(a0[:k4], a1[:k4], b0[:k4], b1[:k4], b2[:k4], b3[:k4], acc[:])
				c00, c01, c02, c03 = acc[0], acc[1], acc[2], acc[3]
				c10, c11, c12, c13 = acc[4], acc[5], acc[6], acc[7]
				kk = k4
			}
			for ; kk < k; kk++ {
				av0, av1 := a0[kk], a1[kk]
				bv0, bv1, bv2, bv3 := b0[kk], b1[kk], b2[kk], b3[kk]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c02 += av0 * bv2
				c03 += av0 * bv3
				c10 += av1 * bv0
				c11 += av1 * bv1
				c12 += av1 * bv2
				c13 += av1 * bv3
			}
			store4(out, (i+0)*n+j, accum, c00, c01, c02, c03)
			store4(out, (i+1)*n+j, accum, c10, c11, c12, c13)
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var c0, c1 float64
			for kk, bv := range brow {
				c0 += a0[kk] * bv
				c1 += a1[kk] * bv
			}
			store1(out, (i+0)*n+j, accum, c0)
			store1(out, (i+1)*n+j, accum, c1)
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var c0, c1, c2, c3 float64
			kk := 0
			if useSIMD && k >= 4 {
				// Remainder row: run the 2×4 kernel with the row
				// duplicated and keep the first row's lanes.
				k4 := k &^ 3
				var acc [8]float64
				dot2x4SIMD(arow[:k4], arow[:k4], b0[:k4], b1[:k4], b2[:k4], b3[:k4], acc[:])
				c0, c1, c2, c3 = acc[0], acc[1], acc[2], acc[3]
				kk = k4
			}
			for ; kk < k; kk++ {
				av := arow[kk]
				c0 += av * b0[kk]
				c1 += av * b1[kk]
				c2 += av * b2[kk]
				c3 += av * b3[kk]
			}
			store4(out, i*n+j, accum, c0, c1, c2, c3)
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			store1(out, i*n+j, accum, s)
		}
	}
}

func store4(out []float64, off int, accum bool, c0, c1, c2, c3 float64) {
	if accum {
		out[off] += c0
		out[off+1] += c1
		out[off+2] += c2
		out[off+3] += c3
		return
	}
	out[off] = c0
	out[off+1] = c1
	out[off+2] = c2
	out[off+3] = c3
}

func store1(out []float64, off int, accum bool, c float64) {
	if accum {
		out[off] += c
		return
	}
	out[off] = c
}
