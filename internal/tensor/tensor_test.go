package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if got := x.Shape(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Shape = %v", got)
	}
}

func TestShapeIsCopied(t *testing.T) {
	x := New(2, 3)
	s := x.Shape()
	s[0] = 99
	if x.Dim(0) != 2 {
		t.Fatal("mutating Shape() result affected the tensor")
	}
}

func TestFromSliceOwnership(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("FromSlice must wrap, not copy")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if got := x.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major layout: offset = (2*4+1)*5+3 = 48.
	if x.Data()[48] != 7.5 {
		t.Fatal("row-major offset mismatch")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := x.Clone()
	y.Data()[0] = 9
	if x.At(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 1)
	if x.At(0, 1) != 99 {
		t.Fatal("Reshape must share storage")
	}
}

func TestPanicsOnBadShape(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"empty shape", func() { New() }},
		{"negative dim", func() { New(2, -1) }},
		{"FromSlice mismatch", func() { FromSlice([]float64{1, 2}, 3) }},
		{"Reshape mismatch", func() { New(2, 3).Reshape(5) }},
		{"At arity", func() { New(2, 3).At(1) }},
		{"At range", func() { New(2, 3).At(1, 5) }},
		{"Add mismatch", func() { AddInto(New(2), New(2), New(3)) }},
		{"MatMul inner", func() { MatMul(New(2, 3), New(4, 5)) }},
		{"MatMul not 2d", func() { MatMul(New(2, 3, 4), New(4, 5)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{4, 3, 2, 1}, 2, 2)
	out := New(2, 2)
	if AddInto(out, a, b); out.Data()[0] != 5 || out.Data()[3] != 5 {
		t.Fatalf("AddInto = %v", out.Data())
	}
	if SubInto(out, a, b); out.Data()[0] != -3 || out.Data()[3] != 3 {
		t.Fatalf("SubInto = %v", out.Data())
	}
	if MulInto(out, a, b); out.Data()[1] != 6 || out.Data()[2] != 6 {
		t.Fatalf("MulInto = %v", out.Data())
	}
	if ScaleInto(out, 2, a); out.Data()[3] != 8 {
		t.Fatalf("ScaleInto = %v", out.Data())
	}
	// dst may alias an operand.
	if AddInto(out, out, b); out.Data()[3] != 9 {
		t.Fatalf("aliased AddInto = %v", out.Data())
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{-1, 2, -3, 4}, 4)
	if got := Sum(a); got != 2 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Norm2(a); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Fatalf("Norm2 = %v", got)
	}
}

func TestSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := FromSlice([]float64{1, 1, 1}, 3)
	SumRowsAccInto(got, a) // accumulates into what dst holds
	want := []float64{6, 8, 10}
	for i, w := range want {
		if got.Data()[i] != w {
			t.Fatalf("SumRowsAccInto = %v, want %v", got.Data(), want)
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

// matMulNaive is a reference implementation used by the property tests.
func matMulNaive(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func randTensor(rng *randSource, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data() {
		t.Data()[i] = rng.norm()
	}
	return t
}

// randSource is a tiny deterministic generator so the quick-check
// properties are reproducible independent of testing/quick's own seeding.
type randSource struct{ s uint64 }

func (r *randSource) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *randSource) norm() float64 {
	// Irwin–Hall approximation of a normal: sum of 4 uniforms, centered.
	s := 0.0
	for i := 0; i < 4; i++ {
		s += float64(r.next()%1000000) / 1000000.0
	}
	return s - 2.0
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, m8, k8, n8 uint8) bool {
		m := int(m8%17) + 1
		k := int(k8%23) + 1
		n := int(n8%19) + 1
		rng := &randSource{s: seed | 1}
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := MatMul(a, b)
		want := matMulNaive(a, b)
		return MaxAbsDiff(got, want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// transpose returns the transpose of a 2-D tensor.
func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

func TestMatMulTransVariantsProperty(t *testing.T) {
	f := func(seed uint64, m8, k8, n8 uint8) bool {
		m := int(m8%13) + 1
		k := int(k8%11) + 1
		n := int(n8%9) + 1
		rng := &randSource{s: seed | 1}
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		// MatMulTransAInto reads aᵀ stored as a (k×m) matrix.
		at, bt := transpose(a), transpose(b)
		ab := MatMul(a, b)
		if MaxAbsDiff(into(m, n, MatMulTransAInto, at, b), ab) > 1e-9 {
			return false
		}
		if MaxAbsDiff(into(m, n, MatMulTransBInto, a, bt), ab) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelLarge(t *testing.T) {
	// Exceed parallelThreshold to exercise the kernel gang.
	rng := &randSource{s: 7}
	a := randTensor(rng, 200, 180)
	b := randTensor(rng, 180, 190)
	got := MatMul(a, b)
	want := matMulNaive(a, b)
	if d := MaxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("parallel matmul deviates from naive by %g", d)
	}
}

func TestIsFinite(t *testing.T) {
	a := New(3)
	if !a.IsFinite() {
		t.Fatal("zeros should be finite")
	}
	a.Data()[1] = math.NaN()
	if a.IsFinite() {
		t.Fatal("NaN not detected")
	}
	a.Data()[1] = math.Inf(1)
	if a.IsFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestAxpyAndScaleInPlace(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{10, 20}, 2)
	AxpyInto(a, 0.5, b)
	if a.At(0) != 6 || a.At(1) != 12 {
		t.Fatalf("AxpyInto = %v", a.Data())
	}
	ScaleInPlace(a, 2)
	if a.At(0) != 12 || a.At(1) != 24 {
		t.Fatalf("ScaleInPlace = %v", a.Data())
	}
}
