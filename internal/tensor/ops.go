package tensor

import (
	"fmt"
	"math"
)

func checkSame(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch: %v vs %v", op, a.shape, b.shape))
	}
}

// AccumInto accumulates src into dst: dst += src.
func AccumInto(dst, src *Tensor) {
	checkSame("AccumInto", dst, src)
	d := dst.data
	for i, v := range src.data {
		d[i] += v
	}
}

// ZeroAddInto overwrites dst with 0 + src, elementwise. It fuses the
// zero-fill-then-accumulate pattern of a gradient buffer's first
// accumulation into one pass; the explicit 0 + x keeps IEEE semantics
// (0 + (-0) is +0), so the result is bit-identical to clearing dst first
// and then accumulating — pinned by TestZeroAddIntoNegZero.
func ZeroAddInto(dst, src *Tensor) {
	checkSame("ZeroAddInto", dst, src)
	for i, v := range src.data {
		dst.data[i] = 0 + v
	}
}

// AxpyInto computes dst += alpha*src.
func AxpyInto(dst *Tensor, alpha float64, src *Tensor) {
	checkSame("AxpyInto", dst, src)
	for i, v := range src.data {
		dst.data[i] += alpha * v
	}
}

// MulAccInto accumulates the elementwise product: dst += a ⊙ b. It is the
// fused form of the Mul-then-AccumInto pattern of autodiff backward
// passes and produces bit-identical results (each element contributes one
// product and one addition either way).
func MulAccInto(dst, a, b *Tensor) {
	checkSame("MulAccInto", dst, a)
	checkSame("MulAccInto", a, b)
	for i, v := range a.data {
		dst.data[i] += v * b.data[i]
	}
}

// AddInto writes a + b elementwise into dst (which may alias a or b).
func AddInto(dst, a, b *Tensor) {
	checkSame("AddInto", dst, a)
	checkSame("AddInto", a, b)
	for i, v := range a.data {
		dst.data[i] = v + b.data[i]
	}
}

// SubInto writes a - b elementwise into dst (which may alias a or b).
func SubInto(dst, a, b *Tensor) {
	checkSame("SubInto", dst, a)
	checkSame("SubInto", a, b)
	for i, v := range a.data {
		dst.data[i] = v - b.data[i]
	}
}

// MulInto writes a * b elementwise into dst (which may alias a or b).
func MulInto(dst, a, b *Tensor) {
	checkSame("MulInto", dst, a)
	checkSame("MulInto", a, b)
	for i, v := range a.data {
		dst.data[i] = v * b.data[i]
	}
}

// ScaleInto writes s * a into dst (which may alias a).
func ScaleInto(dst *Tensor, s float64, a *Tensor) {
	checkSame("ScaleInto", dst, a)
	for i, v := range a.data {
		dst.data[i] = s * v
	}
}

// ApplyInto writes f applied elementwise to a into dst (which may alias a).
func ApplyInto(dst, a *Tensor, f func(float64) float64) {
	checkSame("ApplyInto", dst, a)
	for i, v := range a.data {
		dst.data[i] = f(v)
	}
}

// SumRowsAccInto treats a as (rows x cols) and accumulates the per-column
// sums into dst (length cols): dst[c] += Σ_r a[r,c]. Each column's sum is
// formed in ascending row order before the single accumulation, so it is
// bit-identical to summing into a zeroed vector and then accumulating.
func SumRowsAccInto(dst, a *Tensor) {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRowsAccInto wants a 2-D tensor, got shape %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	if dst.Len() != cols {
		panic(fmt.Sprintf("tensor: SumRowsAccInto dst length %d, want %d", dst.Len(), cols))
	}
	for c := 0; c < cols; c++ {
		s := 0.0
		for r := 0; r < rows; r++ {
			s += a.data[r*cols+c]
		}
		dst.data[c] += s
	}
}

// ScaleInPlace multiplies every element of t by s.
func ScaleInPlace(t *Tensor, s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Sum returns the sum of all elements.
func Sum(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	return s
}

// Norm2 returns the Euclidean (Frobenius) norm of a.
func Norm2(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max_i |a_i - b_i|, useful in tests.
func MaxAbsDiff(a, b *Tensor) float64 {
	checkSame("MaxAbsDiff", a, b)
	m := 0.0
	for i, v := range a.data {
		if d := math.Abs(v - b.data[i]); d > m {
			m = d
		}
	}
	return m
}
