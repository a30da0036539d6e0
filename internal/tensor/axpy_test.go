package tensor

import (
	"math"
	"testing"
)

// axpyCases builds operand vectors covering tails (every length mod 4),
// signed zeros, NaN, infinities and denormals.
func axpyCases(t *testing.T, run func(n int, dst, b0, b1, b2, b3 []float64)) {
	t.Helper()
	specials := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 1e308}
	rng := NewRand(99)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100} {
		mk := func() []float64 {
			v := make([]float64, n)
			for i := range v {
				if i%3 == 0 {
					v[i] = specials[(i/3)%len(specials)]
				} else {
					v[i] = rng.NormFloat64()
				}
			}
			return v
		}
		run(n, mk(), mk(), mk(), mk(), mk())
	}
}

// bitsEq requires got and want to be bit-identical, except that any two
// NaNs are equal. Go does not specify a NaN result's payload: when both
// operands of an add are NaN, which operand's payload propagates depends on
// operand order, and that order is the compiler's (a -race build generates
// the reference loop differently). ±0, ±Inf and denormals stay bit-exact.
func bitsEq(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %x (%v) != %x (%v)",
				what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestAxpySIMDBitExact pins the SIMD axpy kernels to the scalar loops bit
// for bit, specials and tail lengths included. On platforms without SIMD
// support the dispatchers are the scalar loops and the test is trivially
// green.
func TestAxpySIMDBitExact(t *testing.T) {
	for _, av := range []float64{0, math.Copysign(0, -1), 2.5, -1, math.Inf(1), math.NaN()} {
		axpyCases(t, func(n int, dst, b0, _, _, _ []float64) {
			want := append([]float64(nil), dst...)
			for j, bv := range b0 {
				want[j] += av * bv
			}
			axpyRow(dst, av, b0)
			bitsEq(t, "axpy1", dst, want)
		})
	}
	axpyCases(t, func(n int, dst, b0, b1, b2, b3 []float64) {
		av0, av1, av2, av3 := 1.25, -0.5, 3e-3, -7.75
		want := append([]float64(nil), dst...)
		for j := range want {
			want[j] = want[j] + av0*b0[j] + av1*b1[j] + av2*b2[j] + av3*b3[j]
		}
		axpy4Rows(dst, b0, b1, b2, b3, av0, av1, av2, av3)
		bitsEq(t, "axpy4", dst, want)
	})
	if !useSIMD {
		return
	}
	// dot2x4SIMD, the MatMulTransB tile kernel, over the k&^3 prefixes:
	// each of its eight outputs is the ascending-k scalar dot product. The
	// second a row is the first reversed, so specials meet other operands.
	axpyCases(t, func(n int, a0, b0, b1, b2, b3 []float64) {
		k4 := n &^ 3
		a1 := make([]float64, k4)
		for i := range a1 {
			a1[i] = a0[k4-1-i]
		}
		var want [8]float64
		for r, a := range [][]float64{a0, a1} {
			for j, b := range [][]float64{b0, b1, b2, b3} {
				s := 0.0
				for kk := 0; kk < k4; kk++ {
					s += float64(a[kk] * b[kk]) // the conversion forbids fusing
				}
				want[4*r+j] = s
			}
		}
		var got [8]float64
		dot2x4SIMD(a0[:k4], a1, b0[:k4], b1[:k4], b2[:k4], b3[:k4], got[:])
		bitsEq(t, "dot2x4", got[:], want[:])
	})
}

// TestZeroAddIntoNegZero pins the fused first-accumulation semantics: a
// fresh (conceptually zero) gradient buffer accumulating g must behave as
// 0 + g, which flips -0 to +0 — exactly what the historical zero-fill
// followed by += produced.
func TestZeroAddIntoNegZero(t *testing.T) {
	src := FromSlice([]float64{math.Copysign(0, -1), 0, -1, math.NaN()}, 4)
	dst := FromSlice([]float64{7, 7, 7, 7}, 4)
	ZeroAddInto(dst, src)
	if math.Signbit(dst.Data()[0]) {
		t.Fatal("ZeroAddInto kept -0; want +0 (0 + -0)")
	}
	if dst.Data()[1] != 0 || dst.Data()[2] != -1 || !math.IsNaN(dst.Data()[3]) {
		t.Fatalf("ZeroAddInto values wrong: %v", dst.Data())
	}
}
