package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// checkSubset verifies the Sampler contract: sorted, duplicate-free,
// in-range, non-empty, and of the expected size.
func checkSubset(t *testing.T, active []int, n, wantLen int) {
	t.Helper()
	if len(active) != wantLen {
		t.Fatalf("sampled %d devices, want %d (active=%v)", len(active), wantLen, active)
	}
	if !sort.IntsAreSorted(active) {
		t.Fatalf("active %v not sorted", active)
	}
	seen := map[int]bool{}
	for _, id := range active {
		if id < 0 || id >= n {
			t.Fatalf("device id %d outside [0,%d)", id, n)
		}
		if seen[id] {
			t.Fatalf("duplicate device %d in %v", id, active)
		}
		seen[id] = true
	}
}

func TestUniformKTable(t *testing.T) {
	cases := []struct {
		name    string
		k, n    int
		wantLen int
	}{
		{"k smaller than n", 3, 10, 3},
		{"k equals n", 10, 10, 10},
		{"k larger than n clamps", 25, 10, 10},
		{"single device", 1, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewUniformK(c.k)
			if err != nil {
				t.Fatal(err)
			}
			checkSubset(t, s.Sample(c.n, tensor.NewRand(5)), c.n, c.wantLen)
		})
	}
	if _, err := NewUniformK(0); err == nil {
		t.Fatal("NewUniformK(0) accepted")
	}
	if _, err := NewUniformK(-3); err == nil {
		t.Fatal("NewUniformK(-3) accepted")
	}
}

func TestFractionTable(t *testing.T) {
	cases := []struct {
		name    string
		p       float64
		n       int
		wantLen int
	}{
		{"full participation", 1, 8, 8},
		{"half", 0.5, 8, 4},
		{"rounds to nearest", 0.4, 9, 4},
		{"tiny fraction keeps one", 0.001, 50, 1},
		{"zero keeps one", 0, 5, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewFraction(c.p)
			if err != nil {
				t.Fatal(err)
			}
			checkSubset(t, s.Sample(c.n, tensor.NewRand(9)), c.n, c.wantLen)
		})
	}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := NewFraction(bad); err == nil {
			t.Fatalf("NewFraction(%v) accepted", bad)
		}
	}
}

func TestSamplersDeterministicForEqualSeeds(t *testing.T) {
	samplers := []Sampler{
		UniformK{K: 4},
		Fraction{P: 0.5},
	}
	for _, s := range samplers {
		t.Run(s.Name(), func(t *testing.T) {
			a := fmt.Sprint(s.Sample(10, tensor.NewRand(31)))
			b := fmt.Sprint(s.Sample(10, tensor.NewRand(31)))
			if a != b {
				t.Fatalf("same seed, different samples: %s vs %s", a, b)
			}
		})
	}
}

// TestSampleDrawsAsPerm: a policy's sample is the sorted first k entries
// of rng.Perm(n), and it leaves rng where Perm does, call after call on
// one reused buffer over growing and shrinking populations.
func TestSampleDrawsAsPerm(t *testing.T) {
	u, _ := NewUniformK(5)
	f, _ := NewFraction(0.3)
	for _, s := range []Sampler{u, f, UniformK{K: 5}} {
		got, want := tensor.NewRand(17), tensor.NewRand(17)
		for _, n := range []int{40, 7, 1, 300, 3, 300, 64} {
			k := min(5, n)
			if fr, ok := s.(Fraction); ok {
				k = max(int(fr.P*float64(n)+0.5), 1)
			}
			ref := slices.Clone(want.Perm(n)[:k])
			sort.Ints(ref)
			if a := s.Sample(n, got); !slices.Equal(a, ref) {
				t.Fatalf("%s over %d devices: sampled %v, rng.Perm gives %v", s.Name(), n, a, ref)
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("%s over %d devices: the sample left the generator elsewhere than rng.Perm", s.Name(), n)
			}
		}
	}
}

// TestSampleAllocs: once a policy's buffer has grown to the population, a
// sample allocates only its k-sized result.
func TestSampleAllocs(t *testing.T) {
	u, _ := NewUniformK(32)
	f, _ := NewFraction(0.01)
	for _, s := range []Sampler{u, f} {
		rng := tensor.NewRand(3)
		s.Sample(10000, rng)
		if n := testing.AllocsPerRun(20, func() { s.Sample(10000, rng) }); n != 1 {
			t.Errorf("%s: %.1f heap allocations per sample of 10000 devices, want 1 (the result)", s.Name(), n)
		}
	}
}
