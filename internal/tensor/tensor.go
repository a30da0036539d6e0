// Package tensor implements dense, contiguous, row-major float64 tensors
// and the numeric kernels (elementwise arithmetic, matrix multiplication,
// im2col/col2im, reductions) that the autodiff engine in package ag builds
// on.
//
// Error policy: following the convention of numeric Go libraries, shape
// mismatches and out-of-range indices are programmer errors and panic with
// a descriptive message. Operations whose failure depends on external data
// (e.g. serialization) return errors.
//
// Unless stated otherwise, binary operations require operands of identical
// shape and write into a freshly allocated result; the *Into variants write
// into a caller-supplied destination to avoid allocation in hot loops.
package tensor

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Tensor is a dense row-major float64 tensor. The zero value is an empty
// tensor with no dimensions; use New or FromSlice to construct usable
// tensors.
type Tensor struct {
	data  []float64
	shape []int
}

// New returns a zero-filled tensor with the given shape. All dimensions
// must be positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		data:  make([]float64, n),
		shape: append([]int(nil), shape...),
	}
}

// FromSlice wraps data in a tensor of the given shape. The tensor takes
// ownership of data (no copy is made). It panics if len(data) does not
// match the shape product.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...)}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// checkShape and the other shape checks format a copy of the offending
// shape: handing the slice itself to fmt would make every caller's
// variadic shape escape, one heap allocation per tensor request.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Data returns the underlying storage as a mutable view. Callers that
// mutate the returned slice mutate the tensor. This accessor exists for
// performance-critical kernels; general code should prefer At/Set.
func (t *Tensor) Data() []float64 { return t.data }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int {
	if i < 0 || i >= len(t.shape) {
		panic(fmt.Sprintf("tensor: dimension %d out of range for shape %v", i, t.shape))
	}
	return t.shape[i]
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i, d := range t.shape {
		if u.shape[i] != d {
			return false
		}
	}
	return true
}

// offset computes the flat index for idx.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong arity for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		data:  make([]float64, len(t.data)),
		shape: append([]int(nil), t.shape...),
	}
	copy(c.data, t.data)
	return c
}

// CopyFrom copies u's elements into t. The shapes must contain the same
// number of elements (they need not be identical, enabling cheap reshaped
// copies).
func (t *Tensor) CopyFrom(u *Tensor) {
	if len(t.data) != len(u.data) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch: %d vs %d", len(t.data), len(u.data)))
	}
	copy(t.data, u.data)
}

// Reshape returns a tensor sharing t's storage with a new shape. The
// element count must be preserved.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), append([]int(nil), shape...), n))
	}
	return &Tensor{data: t.data, shape: append([]int(nil), shape...)}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// IsFinite reports whether every element is finite (no NaN or Inf).
func (t *Tensor) IsFinite() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor")
	b.WriteString(shapeString(t.shape))
	if len(t.data) <= 16 {
		b.WriteByte('[')
		for i, v := range t.data {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', 5, 64))
		}
		b.WriteByte(']')
	} else {
		fmt.Fprintf(&b, "{%d elems}", len(t.data))
	}
	return b.String()
}

func shapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = strconv.Itoa(d)
	}
	return "(" + strings.Join(parts, "x") + ")"
}
