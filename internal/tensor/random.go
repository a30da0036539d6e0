package tensor

import (
	"math"
	"math/rand/v2"
)

// FillUniform fills t with samples from U[lo, hi).
func FillUniform(t *Tensor, lo, hi float64, rng *rand.Rand) {
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*rng.Float64()
	}
}

// FillNormal fills t with samples from N(mean, std²).
func FillNormal(t *Tensor, mean, std float64, rng *rand.Rand) {
	for i := range t.data {
		t.data[i] = mean + std*rng.NormFloat64()
	}
}

// FillGlorot fills t with the Glorot (Xavier) uniform initialization used
// by the paper: U[-a, a] with a = sqrt(6/(fanIn+fanOut)).
func FillGlorot(t *Tensor, fanIn, fanOut int, rng *rand.Rand) {
	a := math.Sqrt(6.0 / float64(fanIn+fanOut))
	FillUniform(t, -a, a, rng)
}

// NewRand returns a deterministic PCG-backed generator for the given seed.
// Every stochastic component in this repository derives its randomness
// from explicit generators created here; there is no global RNG use.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(NewPCG(seed))
}

// NewPCG returns the source NewRand(seed) draws from, for a caller that
// records or restores the generator's state.
func NewPCG(seed uint64) *rand.PCG {
	return rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
}
