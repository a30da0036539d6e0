package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minTail is how many samples must lie beyond a reported tail percentile
// (choosing-metrics: "the highest percentile that has at least ten
// samples beyond it").
const minTail = 10

// tailPercentile is percentile gated on sample count: it reports ok only
// when at least minTail samples lie beyond the p-th percentile, so a p80
// needs 50 samples and a p99 needs 1000.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	if float64(len(xs))*(1-p) < minTail-1e-9 { // 50 × (1 − 0.8) is 9.999…98 in floating point
		return 0, false
	}
	return percentile(xs, p), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// bestOf picks the better pass value of a timing metric: neighbours on a
// shared host only ever slow a pass down, so the better pass is the less
// disturbed one.
func bestOf(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	best := xs[0]
	for _, x := range xs[1:] {
		if (higherIsBetter && x > best) || (!higherIsBetter && x < best) {
			best = x
		}
	}
	return best
}

// spread is the pass-to-pass spread of a timing metric as a share of its
// smallest value: (max − min) ÷ min.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if lo == 0 {
		return 0
	}
	return (hi - lo) / lo
}
