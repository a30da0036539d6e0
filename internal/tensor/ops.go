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

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame("Add", a, b)
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSame("Sub", a, b)
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSame("Mul", a, b)
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = v * b.data[i]
	}
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	checkSame("Div", a, b)
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = v / b.data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(s float64, a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = s * v
	}
	return out
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
// formed in ascending row order before the single accumulation, matching
// SumRows followed by AccumInto bit for bit.
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

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float64 { return Sum(a) / float64(len(a.data)) }

// Max returns the maximum element.
func Max(a *Tensor) float64 {
	m := math.Inf(-1)
	for _, v := range a.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func Min(a *Tensor) float64 {
	m := math.Inf(1)
	for _, v := range a.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Norm2 returns the Euclidean (Frobenius) norm of a.
func Norm2(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	checkSame("Dot", a, b)
	s := 0.0
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
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

// ArgmaxRows treats a as a (rows x cols) matrix and returns, for each row,
// the column index of its maximum element. The tensor must be 2-D.
func ArgmaxRows(a *Tensor) []int {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows wants a 2-D tensor, got shape %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bi := math.Inf(-1), 0
		row := a.data[r*cols : (r+1)*cols]
		for c, v := range row {
			if v > best {
				best, bi = v, c
			}
		}
		out[r] = bi
	}
	return out
}

// SumRows treats a as (rows x cols) and returns a length-cols tensor with
// the per-column sums (i.e. it reduces over rows).
func SumRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRows wants a 2-D tensor, got shape %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	out := New(cols)
	for r := 0; r < rows; r++ {
		row := a.data[r*cols : (r+1)*cols]
		for c, v := range row {
			out.data[c] += v
		}
	}
	return out
}
