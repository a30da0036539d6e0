package tensor

import (
	"testing"
	"testing/quick"
)

func TestConvOutSize(t *testing.T) {
	cases := []struct {
		in, k, stride, pad, want int
	}{
		{8, 3, 1, 1, 8},
		{8, 3, 2, 1, 4},
		{16, 5, 1, 2, 16},
		{7, 3, 1, 0, 5},
		{4, 4, 4, 0, 1},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.stride, c.pad); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.stride, c.pad, got, c.want)
		}
	}
}

// im2col and col2im lower and scatter one image in the contiguous layout:
// row r of the column matrix at r*oh*ow.
func im2col(src []float64, c, h, w, kh, kw, stride, pad int, dst []float64) {
	n := ConvOutSize(h, kh, stride, pad) * ConvOutSize(w, kw, stride, pad)
	Im2ColStrided(src, c, h, w, kh, kw, stride, pad, dst, n, 0)
}

func col2im(col []float64, c, h, w, kh, kw, stride, pad int, dst []float64) {
	n := ConvOutSize(h, kh, stride, pad) * ConvOutSize(w, kw, stride, pad)
	Col2ImStrided(col, c, h, w, kh, kw, stride, pad, dst, n, 0)
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no padding: im2col is the identity layout.
	src := []float64{1, 2, 3, 4, 5, 6, 7, 8} // 2 channels of 2x2
	dst := make([]float64, 8)
	im2col(src, 2, 2, 2, 1, 1, 1, 0, dst)
	for i, v := range src {
		if dst[i] != v {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], v)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	// Single pixel image with 3x3 kernel and pad 1: the column contains the
	// pixel at the center position and zeros elsewhere.
	src := []float64{5}
	dst := make([]float64, 9)
	im2col(src, 1, 1, 1, 3, 3, 1, 1, dst)
	for i, v := range dst {
		want := 0.0
		if i == 4 {
			want = 5
		}
		if v != want {
			t.Fatalf("dst[%d] = %v, want %v (dst=%v)", i, v, want, dst)
		}
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 1 channel 3x3 image, 2x2 kernel, stride 1, no pad -> 2x2 output,
	// 4 rows (kernel positions) x 4 cols (output positions).
	src := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	dst := make([]float64, 16)
	im2col(src, 1, 3, 3, 2, 2, 1, 0, dst)
	want := []float64{
		1, 2, 4, 5, // k(0,0)
		2, 3, 5, 6, // k(0,1)
		4, 5, 7, 8, // k(1,0)
		5, 6, 8, 9, // k(1,1)
	}
	for i, w := range want {
		if dst[i] != w {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

// TestCol2ImAdjointProperty verifies the defining adjoint identity
// <im2col(x), y> == <x, col2im(y)> for random shapes, which is exactly the
// property the conv backward pass relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed uint64, c8, h8, k8, s8, p8 uint8) bool {
		c := int(c8%3) + 1
		k := int(k8%3) + 1
		stride := int(s8%2) + 1
		pad := int(p8 % 2)
		h := int(h8%5) + k // ensure h >= k
		w := h
		rng := &randSource{s: seed | 1}

		oh := ConvOutSize(h, k, stride, pad)
		ow := ConvOutSize(w, k, stride, pad)
		x := make([]float64, c*h*w)
		for i := range x {
			x[i] = rng.norm()
		}
		y := make([]float64, c*k*k*oh*ow)
		for i := range y {
			y[i] = rng.norm()
		}

		colX := make([]float64, len(y))
		im2col(x, c, h, w, k, k, stride, pad, colX)
		lhs := 0.0
		for i := range y {
			lhs += colX[i] * y[i]
		}

		imY := make([]float64, len(x))
		col2im(y, c, h, w, k, k, stride, pad, imY)
		rhs := 0.0
		for i := range x {
			rhs += x[i] * imY[i]
		}
		return abs(lhs-rhs) < 1e-9*(1+abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	col := []float64{1}
	dst := []float64{10}
	col2im(col, 1, 1, 1, 1, 1, 1, 0, dst)
	if dst[0] != 11 {
		t.Fatalf("Col2Im must accumulate, got %v", dst[0])
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
