package tensor

import (
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestFillNormalMoments(t *testing.T) {
	rng := NewRand(7)
	x := New(20000)
	FillNormal(x, 2.0, 3.0, rng)
	mean := Sum(x) / float64(x.Len())
	variance := 0.0
	for _, v := range x.Data() {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(x.Len())
	if math.Abs(mean-2.0) > 0.1 {
		t.Fatalf("mean = %v, want ~2.0", mean)
	}
	if math.Abs(math.Sqrt(variance)-3.0) > 0.15 {
		t.Fatalf("std = %v, want ~3.0", math.Sqrt(variance))
	}
}

// minMax returns x's smallest and largest elements.
func minMax(x *Tensor) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range x.Data() {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

func TestFillUniformRange(t *testing.T) {
	rng := NewRand(8)
	x := New(5000)
	FillUniform(x, -0.25, 0.75, rng)
	lo, hi := minMax(x)
	if lo < -0.25 || hi >= 0.75 {
		t.Fatalf("uniform fill out of range: [%v, %v]", lo, hi)
	}
	if hi-lo < 0.9 {
		t.Fatalf("uniform fill did not span the range: [%v, %v]", lo, hi)
	}
}

func TestFillGlorotBound(t *testing.T) {
	rng := NewRand(9)
	x := New(4000)
	FillGlorot(x, 30, 70, rng)
	bound := math.Sqrt(6.0 / 100.0)
	for _, v := range x.Data() {
		if v < -bound || v > bound {
			t.Fatalf("glorot sample %v outside ±%v", v, bound)
		}
	}
	// Spread should approach the bound.
	if lo, hi := minMax(x); hi < 0.8*bound || lo > -0.8*bound {
		t.Fatal("glorot fill suspiciously narrow")
	}
}
