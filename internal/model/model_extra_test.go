package model

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// TestAllArchitecturesAt8x8 covers the scaled experiment image size used
// by the default experiment scale.
func TestAllArchitecturesAt8x8(t *testing.T) {
	for _, name := range Names() {
		for _, c := range []int{1, 3} {
			in := Shape{C: c, H: 8, W: 8}
			m, err := Build(name, in, 10, tensor.NewRand(1))
			if err != nil {
				t.Fatalf("%s at %v: %v", name, in, err)
			}
			y := m.Forward(ag.Const(tensor.New(1, c, 8, 8)))
			if s := y.Shape(); s[1] != 10 {
				t.Fatalf("%s at %v: output %v", name, in, s)
			}
		}
	}
}

// TestGeneratorStateRoundTrip ensures the generator's full state (stem,
// stem BN, decoder) serialises and restores exactly — the checkpointing
// path depends on it.
func TestGeneratorStateRoundTrip(t *testing.T) {
	g1 := NewGenerator(16, Shape{C: 1, H: 8, W: 8}, tensor.NewRand(2))
	g2 := NewGenerator(16, Shape{C: 1, H: 8, W: 8}, tensor.NewRand(99))
	if err := nn.LoadState(g2, nn.CaptureState(g1)); err != nil {
		t.Fatal(err)
	}
	g1.SetTraining(false)
	g2.SetTraining(false)
	z := g1.SampleZIn(tensor.NewArena(), 3, tensor.NewRand(3))
	a := g1.Forward(ag.Const(z)).Value()
	b := g2.Forward(ag.Const(z.Clone())).Value()
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("generators disagree after state transfer")
	}
}

// TestGeneratorDeterministicSampling: same RNG seed, same synthetic batch.
func TestGeneratorDeterministicSampling(t *testing.T) {
	g := NewGenerator(8, Shape{C: 1, H: 8, W: 8}, tensor.NewRand(4))
	g.SetTraining(false)
	a := g.Forward(ag.Const(g.SampleZIn(tensor.NewArena(), 2, tensor.NewRand(5)))).Value()
	b := g.Forward(ag.Const(g.SampleZIn(tensor.NewArena(), 2, tensor.NewRand(5)))).Value()
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("generation not deterministic under fixed seed")
	}
}

// TestGeneratorRejectsBadShapes documents the contract.
func TestGeneratorRejectsBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for indivisible spatial size")
		}
	}()
	NewGenerator(8, Shape{C: 1, H: 10, W: 10}, tensor.NewRand(6))
}

// TestGeneratorRejectsWrongZDim documents the forward contract.
func TestGeneratorRejectsWrongZDim(t *testing.T) {
	g := NewGenerator(8, Shape{C: 1, H: 8, W: 8}, tensor.NewRand(7))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for wrong z dimension")
		}
	}()
	g.Forward(ag.Const(tensor.New(2, 9)))
}

// sameStateBits fails unless a and b hold the same names with bitwise
// equal values (MaxAbsDiff would let -0 pass for +0 and choke on NaN).
func sameStateBits(t *testing.T, what string, a, b nn.StateDict) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d state tensors, want %d", what, len(a), len(b))
	}
	for name, ta := range a {
		tb, ok := b[name]
		if !ok || ta.Len() != tb.Len() {
			t.Fatalf("%s: tensor %q missing or resized", what, name)
		}
		da, db := ta.Data(), tb.Data()
		for i := range da {
			if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
				t.Fatalf("%s: %q[%d] = %v, want %v", what, name, i, da[i], db[i])
			}
		}
	}
}

// TestReinitMatchesBuild: re-seeding a live module in place reproduces a
// fresh seeded build bit for bit over the full state dict — weights,
// biases, batch-norm parameters and running statistics — for every
// registered architecture and the generator, even after the module's
// state has been trained away from any initial value.
func TestReinitMatchesBuild(t *testing.T) {
	const seedA, seedB = 11, 4242
	scramble := func(m nn.Module) {
		rng := tensor.NewRand(7)
		for _, tt := range nn.CaptureState(m) {
			tensor.FillNormal(tt, 3, 2, rng)
		}
	}
	for _, name := range Names() {
		for _, in := range []Shape{{C: 1, H: 16, W: 16}, {C: 3, H: 8, W: 8}} {
			m := MustBuild(name, in, 10, tensor.NewRand(seedA))
			scramble(m)
			if err := Reinit(m, tensor.NewRand(seedB)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := MustBuild(name, in, 10, tensor.NewRand(seedB))
			sameStateBits(t, name+" at "+in.String(), nn.CaptureState(m), nn.CaptureState(want))
		}
	}
	out := Shape{C: 3, H: 16, W: 16}
	g := NewGenerator(12, out, tensor.NewRand(seedA))
	scramble(g)
	if err := Reinit(g, tensor.NewRand(seedB)); err != nil {
		t.Fatal(err)
	}
	sameStateBits(t, "generator", nn.CaptureState(g), nn.CaptureState(NewGenerator(12, out, tensor.NewRand(seedB))))

	// Both generators must also be left at the same stream position: a
	// Reinit that drew too few or too many variates would still match on
	// the state dict of the last layer only by accident.
	ra, rb := tensor.NewRand(seedB), tensor.NewRand(seedB)
	_ = MustBuild("mobilenet-0.8", out, 10, ra)
	if err := Reinit(MustBuild("mobilenet-0.8", out, 10, tensor.NewRand(seedA)), rb); err != nil {
		t.Fatal(err)
	}
	if ra.Uint64() != rb.Uint64() {
		t.Fatal("Reinit consumed a different number of draws than Build")
	}
}

// TestLayoutBuildDrawsNothing: for every registered architecture, a build
// with a nil generator has the seeded build's state names and shapes; its
// weights are all zero, and everything no constructor draws — biases and
// batch-norm state — equals the seeded build's. Re-seeding the layout
// build in place gives the seeded build bit for bit, which is how a
// layout module comes to hold a device's initial state.
func TestLayoutBuildDrawsNothing(t *testing.T) {
	for _, name := range Names() {
		for _, in := range []Shape{{C: 1, H: 16, W: 16}, {C: 3, H: 8, W: 8}} {
			what := name + " at " + in.String()
			layout := MustBuild(name, in, 10, nil)
			seeded := nn.CaptureState(MustBuild(name, in, 10, tensor.NewRand(5)))
			got := nn.CaptureState(layout)
			if !slices.Equal(got.Names(), seeded.Names()) {
				t.Fatalf("%s: layout names %v, seeded %v", what, got.Names(), seeded.Names())
			}
			for n, tt := range got {
				if !slices.Equal(tt.Shape(), seeded[n].Shape()) {
					t.Fatalf("%s: %s has shape %v, seeded %v", what, n, tt.Shape(), seeded[n].Shape())
				}
				if !strings.HasSuffix(n, "w") {
					sameStateBits(t, what+" "+n, nn.StateDict{n: tt}, nn.StateDict{n: seeded[n]})
					continue
				}
				for _, v := range tt.Data() {
					if v != 0 {
						t.Fatalf("%s: weight %s holds %v, want all zero", what, n, v)
					}
				}
			}
			if err := Reinit(layout, tensor.NewRand(5)); err != nil {
				t.Fatal(err)
			}
			sameStateBits(t, what+" re-seeded", nn.CaptureState(layout), seeded)
		}
	}
}

// TestSetTrainableAllocatesNothing: every module's Params is made once,
// at construction, so toggling trainability — which the server's
// distillation does on the global model, the generator and its teachers
// every iteration — allocates nothing, for every registered architecture
// and the generator. The returned slices have cap == len, so a caller
// that appends to one copies it instead of writing past its end.
func TestSetTrainableAllocatesNothing(t *testing.T) {
	var mods []nn.Module
	for _, name := range Names() {
		mods = append(mods, MustBuild(name, Shape{C: 3, H: 16, W: 16}, 10, nil))
	}
	mods = append(mods, NewGenerator(16, Shape{C: 1, H: 16, W: 16}, nil))
	for _, m := range mods {
		if n := testing.AllocsPerRun(20, func() {
			nn.SetTrainable(m, false)
			nn.SetTrainable(m, true)
		}); n != 0 {
			t.Errorf("%T: SetTrainable allocates %v times per call pair", m, n)
		}
		if ps := m.Params(); cap(ps) != len(ps) || len(ps) == 0 {
			t.Errorf("%T: Params has len %d, cap %d", m, len(ps), cap(ps))
		}
	}
}
