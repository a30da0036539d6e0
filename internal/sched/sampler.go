package sched

import (
	"fmt"
	"math/rand/v2"
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
// federated systems.
type UniformK struct{ K int }

// NewUniformK validates k and builds the policy.
func NewUniformK(k int) (UniformK, error) {
	if k <= 0 {
		return UniformK{}, fmt.Errorf("sched: uniform-K sample size %d must be positive", k)
	}
	return UniformK{K: k}, nil
}

// Name implements Sampler.
func (u UniformK) Name() string { return fmt.Sprintf("uniform-%d", u.K) }

// Sample implements Sampler.
func (u UniformK) Sample(n int, rng *rand.Rand) []int {
	return uniformSubset(n, u.K, rng)
}

// Fraction samples round(p·n) devices uniformly (at least one) — the
// paper's straggler parameter p, expressed as a policy.
type Fraction struct{ P float64 }

// NewFraction validates p and builds the policy.
func NewFraction(p float64) (Fraction, error) {
	if !(0 <= p && p <= 1) {
		return Fraction{}, fmt.Errorf("sched: active fraction %v outside [0,1]", p)
	}
	return Fraction{P: p}, nil
}

// Name implements Sampler.
func (f Fraction) Name() string { return fmt.Sprintf("fraction-%.2f", f.P) }

// Sample implements Sampler.
func (f Fraction) Sample(n int, rng *rand.Rand) []int {
	return uniformSubset(n, int(f.P*float64(n)+0.5), rng)
}

// uniformSubset draws a uniformly random subset of [0,n) of size
// min(max(k,1), n), sorted ascending — the shared selection mechanics of
// the uniform policies.
func uniformSubset(n, k int, rng *rand.Rand) []int {
	checkPopulation(n)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	active := append([]int(nil), rng.Perm(n)[:k]...)
	sort.Ints(active)
	return active
}

func checkPopulation(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("sched: sampling from %d devices", n))
	}
}
