// Package partition splits a labelled dataset across federated devices
// under the three regimes of the paper's evaluation: IID, quantity-based
// label imbalance (each device holds a fixed number of classes), and
// distribution-based label imbalance (per-class Dirichlet(β) splits).
package partition

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// ByRegime splits labels across k devices under the regime spec names:
// "iid" (also the "" default), "quantity:<classes-per-device>" or
// "dirichlet:<beta>". It is the one parser of that vocabulary; the
// experiment runner and the transport server each bring their own rng, so
// the same spec names the same regime in both without promising the same
// shards.
func ByRegime(spec string, labels []int, classes, k int, rng *rand.Rand) ([][]int, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "", "iid":
		return IID(len(labels), k, rng), nil
	case "quantity":
		c, err := strconv.Atoi(arg)
		if err != nil || c <= 0 || c > classes {
			return nil, fmt.Errorf("partition: regime %q: want quantity:<classes-per-device> in [1,%d]", spec, classes)
		}
		return QuantitySkew(labels, classes, k, c, rng), nil
	case "dirichlet":
		beta, err := strconv.ParseFloat(arg, 64)
		if err != nil || !(beta > 0) {
			return nil, fmt.Errorf("partition: regime %q: want dirichlet:<beta> with beta > 0", spec)
		}
		return Dirichlet(labels, classes, k, beta, rng), nil
	default:
		return nil, fmt.Errorf("partition: unknown regime %q (want iid, quantity:<c> or dirichlet:<beta>)", spec)
	}
}

// IID assigns n samples to k devices uniformly at random with near-equal
// sizes (|size_i - size_j| ≤ 1). The shards are consecutive views of one
// permutation, each capped at its own end, so an append to one copies it
// rather than writing into its neighbour.
func IID(n, k int, rng *rand.Rand) [][]int {
	if n < k || k <= 0 {
		panic(fmt.Sprintf("partition: IID(n=%d, k=%d)", n, k))
	}
	perm := rng.Perm(n)
	out := make([][]int, k)
	for i := range out {
		lo := i * n / k
		hi := (i + 1) * n / k
		out[i] = perm[lo:hi:hi]
	}
	return out
}

// QuantitySkew implements quantity-based label imbalance: every device
// holds data from exactly classesPerDevice classes. Class slots are dealt
// round-robin over a shuffled class list so every class is held by at
// least one device, then each class's samples are split evenly among its
// holders.
func QuantitySkew(labels []int, numClasses, k, classesPerDevice int, rng *rand.Rand) [][]int {
	if classesPerDevice <= 0 || classesPerDevice > numClasses {
		panic(fmt.Sprintf("partition: classesPerDevice=%d with %d classes", classesPerDevice, numClasses))
	}
	if k <= 0 {
		panic("partition: no devices")
	}
	// Assign classes to devices: k*classesPerDevice slots dealt from
	// repeated shuffles of the class list, so coverage is exact when
	// k*classesPerDevice >= numClasses and as even as possible.
	holders := make([][]int, numClasses) // class -> device ids
	slot := 0
	var order []int
	for dev := 0; dev < k; dev++ {
		picked := make(map[int]bool, classesPerDevice)
		for len(picked) < classesPerDevice {
			if slot == len(order) {
				order = rng.Perm(numClasses)
				slot = 0
			}
			cl := order[slot]
			slot++
			if picked[cl] {
				continue
			}
			picked[cl] = true
			holders[cl] = append(holders[cl], dev)
		}
	}
	// Split each class's samples evenly among its holders.
	byClass := indexByClass(labels, numClasses)
	out := make([][]int, k)
	for cl, idx := range byClass {
		hs := holders[cl]
		if len(hs) == 0 {
			continue // class unheld (possible when k*cpd < numClasses)
		}
		shuffle(idx, rng)
		for i, sample := range idx {
			dev := hs[i%len(hs)]
			out[dev] = append(out[dev], sample)
		}
	}
	return out
}

// Dirichlet implements distribution-based label imbalance: for every class
// a proportion vector over devices is drawn from Dir(β) and the class's
// samples are split accordingly. Small β yields highly skewed label
// distributions; large β approaches IID. Devices left empty are topped up
// with one sample from the largest device so every device can train.
func Dirichlet(labels []int, numClasses, k int, beta float64, rng *rand.Rand) [][]int {
	if beta <= 0 {
		panic(fmt.Sprintf("partition: beta must be positive, got %v", beta))
	}
	if k <= 0 {
		panic("partition: no devices")
	}
	byClass := indexByClass(labels, numClasses)
	out := make([][]int, k)
	for _, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		shuffle(idx, rng)
		p := dirichletVector(k, beta, rng)
		// Convert proportions to cumulative sample boundaries.
		lo := 0
		acc := 0.0
		for dev := 0; dev < k; dev++ {
			acc += p[dev]
			hi := int(math.Round(acc * float64(len(idx))))
			if dev == k-1 {
				hi = len(idx)
			}
			if hi > lo {
				out[dev] = append(out[dev], idx[lo:hi]...)
			}
			lo = hi
		}
	}
	topUpEmpty(out, rng)
	return out
}

// topUpEmpty moves one sample from the largest shard into each empty one.
func topUpEmpty(out [][]int, rng *rand.Rand) {
	for dev := range out {
		if len(out[dev]) > 0 {
			continue
		}
		big := 0
		for i := range out {
			if len(out[i]) > len(out[big]) {
				big = i
			}
		}
		if len(out[big]) < 2 {
			continue // nothing to donate
		}
		j := rng.IntN(len(out[big]))
		out[dev] = append(out[dev], out[big][j])
		out[big][j] = out[big][len(out[big])-1]
		out[big] = out[big][:len(out[big])-1]
	}
}

// dirichletVector samples from a symmetric Dirichlet(β) over k bins.
func dirichletVector(k int, beta float64, rng *rand.Rand) []float64 {
	p := make([]float64, k)
	sum := 0.0
	for i := range p {
		p[i] = gammaSample(beta, rng)
		sum += p[i]
	}
	if sum == 0 {
		// Degenerate underflow: fall back to uniform.
		for i := range p {
			p[i] = 1 / float64(k)
		}
		return p
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// gammaSample draws from Gamma(shape, 1) with the Marsaglia–Tsang method,
// boosted for shape < 1.
func gammaSample(shape float64, rng *rand.Rand) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(shape+1, rng) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// indexByClass buckets sample indices by label.
func indexByClass(labels []int, numClasses int) [][]int {
	byClass := make([][]int, numClasses)
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			panic(fmt.Sprintf("partition: label %d out of range [0,%d)", y, numClasses))
		}
		byClass[y] = append(byClass[y], i)
	}
	return byClass
}

func shuffle(idx []int, rng *rand.Rand) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}
