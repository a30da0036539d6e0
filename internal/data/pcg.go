package data

import (
	"math/bits"
	"math/rand/v2"
	"sync"
)

// The walk steps rand.PCG's generator itself: a training sample's normal
// draws only have to be counted, not made, and the ziggurat that
// (*rand.Rand).NormFloat64 runs settles almost every draw on one word by
// an integer test. The walk makes that test on each word and hands the
// rare word that fails it to the real NormFloat64, so the slow path is
// never re-implemented.

// pcgStep is rand.PCG's state transition, s ↦ s·mul + inc (mod 2¹²⁸),
// with the published PCG-DXSM 128-bit multiplier and increment.
var pcgStep = affine{
	mul: pcgState{hi: 2549297995355413924, lo: 4865540595714422341},
	add: pcgState{hi: 6364136223846793005, lo: 1442695040888963407},
}

// lanes is how many successive states the walk computes from one state
// at once: each lane's product depends on that state alone, so the
// 128-bit multiplies overlap instead of waiting on each other.
const lanes = 4

// jumps[k] is k+1 steps of the generator as one map.
var jumps = func() (j [lanes]affine) {
	j[0] = pcgStep
	for k := 1; k < lanes; k++ {
		j[k] = j[k-1].then(pcgStep)
	}
	return j
}()

// affine is the map s ↦ s·mul + add over 128-bit states.
type affine struct{ mul, add pcgState }

// apply returns s·mul + add (mod 2¹²⁸).
func (f affine) apply(s pcgState) pcgState {
	hi, lo := bits.Mul64(s.lo, f.mul.lo)
	hi += s.hi*f.mul.lo + s.lo*f.mul.hi
	lo, c := bits.Add64(lo, f.add.lo, 0)
	hi, _ = bits.Add64(hi, f.add.hi, c)
	return pcgState{hi, lo}
}

// then returns the map that applies f and then g.
func (f affine) then(g affine) affine {
	return affine{mul: affine{mul: g.mul}.apply(f.mul), add: g.apply(f.add)}
}

// next steps s and returns the word rand.PCG's Uint64 returns for it.
func (s *pcgState) next() uint64 {
	*s = pcgStep.apply(*s)
	return dxsm(*s)
}

// dxsm is PCG-DXSM's output function ("double xorshift multiply") of a
// stepped state.
func dxsm(s pcgState) uint64 {
	hi := s.hi
	hi ^= hi >> 32
	hi *= 0xda942042e4dd58b5
	hi ^= hi >> 48
	return hi * (s.lo | 1)
}

// fastNormal reports whether NormFloat64 settles on word u alone: the
// ziggurat's test |j| < kn[strip] on the low 32 bits j of u, strip
// u>>32 & 0x7F.
func fastNormal(kn *[128]uint32, u uint64) bool {
	j := int32(u)
	m := uint32(j >> 31)
	return (uint32(j)^m)-m < kn[u>>32&0x7F]
}

// walkNormals makes, from state s, the draws of n calls of
// rng.NormFloat64 — rng's source is pcg — and returns the state they
// leave. pcg's own state is left unspecified.
func walkNormals(s pcgState, n int, pcg *rand.PCG, rng *rand.Rand) pcgState {
	kn := zigguratKn()
	for n >= lanes {
		s1, s2, s3, s4 := jumps[0].apply(s), jumps[1].apply(s), jumps[2].apply(s), jumps[3].apply(s)
		// pre is the state before the first word that fails the test.
		var pre pcgState
		switch {
		case !fastNormal(kn, dxsm(s1)):
			pre, n = s, n-1
		case !fastNormal(kn, dxsm(s2)):
			pre, n = s1, n-2
		case !fastNormal(kn, dxsm(s3)):
			pre, n = s2, n-3
		case !fastNormal(kn, dxsm(s4)):
			pre, n = s3, n-4
		default:
			s, n = s4, n-lanes
			continue
		}
		s = slowNormal(pre, pcg, rng)
	}
	for ; n > 0; n-- {
		if t := s; fastNormal(kn, t.next()) {
			s = t
		} else {
			s = slowNormal(s, pcg, rng)
		}
	}
	return s
}

// slowNormal makes from state s the one NormFloat64 draw whose first word
// fails the fast test, with the real NormFloat64, and returns the state
// it leaves.
func slowNormal(s pcgState, pcg *rand.PCG, rng *rand.Rand) pcgState {
	pcg.Seed(s.hi, s.lo)
	rng.NormFloat64()
	return stateOf(pcg)
}

// zigguratKn is NormFloat64's table of fast-test bounds, derived once from
// NormFloat64 itself: kn[i] is the least |j| at which a word of strip i
// costs more than one word.
var zigguratKn = sync.OnceValue(func() *[128]uint32 {
	var kn [128]uint32
	for i := range kn {
		// A binary search over |j| in [0, 2³¹]: 2³¹, the |j| of
		// math.MinInt32, fails every strip's test.
		lo, hi := uint32(0), uint32(1<<31)
		for lo < hi {
			if mid := lo + (hi-lo)/2; normWords(i, mid) > 1 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		kn[i] = lo
	}
	return &kn
})

// normWords returns how many words one NormFloat64 call takes when its
// first word has strip i and low 32 bits v.
func normWords(i int, v uint32) int {
	src := &scripted{first: uint64(i)<<32 | uint64(v)}
	rand.New(src).NormFloat64()
	return src.words
}

// scripted is a rand.Source that yields first and then zeros, counting
// the words it yields. A zero word settles a draw at once: its strip is
// 0 with j = 0, and as a uniform it is 0, which ends the base strip's tail
// loop.
type scripted struct {
	first uint64
	words int
}

// Uint64 implements rand.Source.
func (s *scripted) Uint64() uint64 {
	s.words++
	if s.words == 1 {
		return s.first
	}
	return 0
}
