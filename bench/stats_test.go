package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose: percentile must not need sorted input
	for _, c := range []struct{ p, want float64 }{
		{0.5, 3}, {0.25, 2}, {0.8, 4.2},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it: p80 needs 50 samples, and 49 are one short.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tailPercentile(xs[:49], 0.8); ok {
		t.Error("p80 reported from 49 samples (9.8 beyond it)")
	}
	v, ok := tailPercentile(xs, 0.8)
	if !ok {
		t.Fatal("p80 withheld from 50 samples")
	}
	if want := percentile(xs, 0.8); v != want {
		t.Errorf("p80 = %v, want %v", v, want)
	}
	if _, ok := tailPercentile(xs, 0.99); ok {
		t.Error("p99 reported from 50 samples")
	}
}

func TestBestOfAndSpread(t *testing.T) {
	times := []float64{110, 100, 130}
	if got := bestOf(times, false); got != 100 {
		t.Errorf("best time = %v, want the minimum 100", got)
	}
	if got := bestOf(times, true); got != 130 {
		t.Errorf("best rate = %v, want the maximum 130", got)
	}
	if got := spread(times); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if got := spread(times[:1]); got != 0 {
		t.Errorf("spread of one pass = %v, want 0", got)
	}
}
