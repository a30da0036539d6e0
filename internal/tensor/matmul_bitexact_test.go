package tensor

import (
	"math"
	"testing"
)

func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refTransA(a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		orow := out.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := a.data[kk*m+i]
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refTransB(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
	return out
}

func bitEq(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	for i, v := range want.data {
		g := got.data[i]
		if math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("%s: elem %d differs: %x vs %x (%v vs %v)", name, i, math.Float64bits(g), math.Float64bits(v), g, v)
		}
	}
}

// into runs an Into kernel on a fresh (m×n) destination.
func into(m, n int, kernel func(dst, a, b *Tensor), a, b *Tensor) *Tensor {
	dst := New(m, n)
	kernel(dst, a, b)
	return dst
}

// TestMatMulBitExact pins the blocked kernels to the reference i-k-j
// accumulation order: every variant must reproduce the historical plain
// loops bit for bit, including the skip of exact zeros in a.
func TestMatMulBitExact(t *testing.T) {
	rng := NewRand(5)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 6}, {17, 33, 29}, {64, 72, 100}, {128, 128, 128}, {13, 200, 51}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k)
		b := New(k, n)
		FillNormal(a, 0, 1, rng)
		FillNormal(b, 0, 1, rng)
		// sprinkle zeros
		for i := 0; i < len(a.data); i += 3 {
			a.data[i] = 0
		}
		bitEq(t, "matmul", MatMul(a, b), refMatMul(a, b))

		at := New(k, m)
		FillNormal(at, 0, 1, rng)
		for i := 0; i < len(at.data); i += 5 {
			at.data[i] = 0
		}
		bitEq(t, "transA", into(m, n, MatMulTransAInto, at, b), refTransA(at, b))

		bt := New(n, k)
		FillNormal(bt, 0, 1, rng)
		bitEq(t, "transB", into(m, n, MatMulTransBInto, a, bt), refTransB(a, bt))

		// Into variants fully overwrite a dirty destination, as the
		// backward's step scratch is.
		dst := New(m, n)
		FillNormal(dst, 0, 1, rng)
		MatMulInto(dst, a, b)
		bitEq(t, "matmulInto", dst, refMatMul(a, b))

		dst2 := New(m, n)
		FillNormal(dst2, 0, 1, rng)
		MatMulTransAInto(dst2, at, b)
		bitEq(t, "transAInto", dst2, refTransA(at, b))

		// The accumulate variant: dst prefilled, compare against ref + add.
		dst3 := New(m, n)
		FillNormal(dst3, 0, 1, rng)
		want3 := dst3.Clone()
		AccumInto(want3, refTransB(a, bt))
		MatMulTransBAccInto(dst3, a, bt)
		bitEq(t, "transBAcc", dst3, want3)
	}
}
