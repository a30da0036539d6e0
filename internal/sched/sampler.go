package sched

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
)

// Sampler selects the devices that participate in one communication
// round. Implementations draw only from the supplied rng, so a round's
// selection is a pure function of the rng state — independent of worker
// count and wall clock. The returned ids are sorted ascending and free of
// duplicates; at least one device is always selected.
type Sampler interface {
	// Name identifies the policy in logs and experiment tables.
	Name() string
	// Sample picks the participating subset of [0, n).
	Sample(n int, rng *rand.Rand) []int
}

// UniformK samples exactly min(K, n) devices uniformly without
// replacement — the classic partial-participation policy of large-scale
// federated systems. One built by NewUniformK shuffles in a buffer it
// keeps across calls (see permBuffer).
type UniformK struct {
	K    int
	perm *permBuffer
}

// NewUniformK validates k and builds the policy.
func NewUniformK(k int) (UniformK, error) {
	if k <= 0 {
		return UniformK{}, fmt.Errorf("sched: uniform-K sample size %d must be positive", k)
	}
	return UniformK{K: k, perm: new(permBuffer)}, nil
}

// Name implements Sampler.
func (u UniformK) Name() string { return fmt.Sprintf("uniform-%d", u.K) }

// Sample implements Sampler.
func (u UniformK) Sample(n int, rng *rand.Rand) []int {
	return u.perm.subset(n, u.K, rng)
}

// Fraction samples round(p·n) devices uniformly (at least one) — the
// paper's straggler parameter p, expressed as a policy. One built by
// NewFraction shuffles in a buffer it keeps across calls (see
// permBuffer).
type Fraction struct {
	P    float64
	perm *permBuffer
}

// NewFraction validates p and builds the policy.
func NewFraction(p float64) (Fraction, error) {
	if !(0 <= p && p <= 1) {
		return Fraction{}, fmt.Errorf("sched: active fraction %v outside [0,1]", p)
	}
	return Fraction{P: p, perm: new(permBuffer)}, nil
}

// Name implements Sampler.
func (f Fraction) Name() string { return fmt.Sprintf("fraction-%.2f", f.P) }

// Sample implements Sampler.
func (f Fraction) Sample(n int, rng *rand.Rand) []int {
	return f.perm.subset(n, int(f.P*float64(n)+0.5), rng)
}

// permBuffer is the permutation a uniform policy shuffles to draw its
// subset, kept across calls so a round's sample allocates only its
// k-sized result rather than a permutation of the whole population.
// Copies of a policy share it, so their Sample calls must not overlap. A
// policy written as a literal has none, and shuffles in a fresh one each
// call.
type permBuffer struct{ p []int }

// subset draws a uniformly random subset of [0,n) of size
// min(max(k,1), n), sorted ascending — the shared selection mechanics of
// the uniform policies. It is the first k entries of the permutation
// rng.Perm(n) would return, drawn the same way: the identity, then
// rng.Shuffle.
func (b *permBuffer) subset(n, k int, rng *rand.Rand) []int {
	checkPopulation(n)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if b == nil {
		b = new(permBuffer)
	}
	b.p = slices.Grow(b.p[:0], n)[:n]
	p := b.p
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	active := slices.Clone(p[:k])
	sort.Ints(active)
	return active
}

func checkPopulation(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("sched: sampling from %d devices", n))
	}
}
