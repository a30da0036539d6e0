package model

import (
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

var (
	smallShape = Shape{C: 1, H: 16, W: 16}
	cifarShape = Shape{C: 3, H: 16, W: 16}
)

func TestBuildAllArchitecturesForwardShape(t *testing.T) {
	const classes = 10
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, in := range []Shape{smallShape, cifarShape} {
				rng := tensor.NewRand(1)
				m, err := Build(name, in, classes, rng)
				if err != nil {
					t.Fatal(err)
				}
				x := tensor.New(2, in.C, in.H, in.W)
				tensor.FillNormal(x, 0, 1, tensor.NewRand(2))
				y := m.Forward(ag.Const(x))
				s := y.Shape()
				if len(s) != 2 || s[0] != 2 || s[1] != classes {
					t.Fatalf("%s(%v) output shape %v, want (2,%d)", name, in, s, classes)
				}
				if !y.Value().IsFinite() {
					t.Fatalf("%s produced non-finite logits", name)
				}
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	rng := tensor.NewRand(1)
	if _, err := Build("nope", smallShape, 10, rng); err == nil {
		t.Fatal("want error for unknown architecture")
	}
	if _, err := Build("cnn", Shape{C: 1, H: 10, W: 10}, 10, rng); err == nil {
		t.Fatal("want error for spatial size not divisible by 4")
	}
	if _, err := Build("cnn", smallShape, 1, rng); err == nil {
		t.Fatal("want error for single class")
	}
}

func TestZooHeterogeneity(t *testing.T) {
	// The zoo must contain genuinely different architectures: pairwise
	// different parameter counts (that is what FedZKT must bridge).
	counts := make(map[string]int)
	for _, name := range CIFARZoo() {
		m := MustBuild(name, cifarShape, 10, tensor.NewRand(3))
		counts[name] = nn.NumParams(m)
	}
	seen := make(map[int]string)
	for name, c := range counts {
		if other, dup := seen[c]; dup {
			t.Fatalf("%s and %s have identical parameter counts (%d)", name, other, c)
		}
		seen[c] = name
		if c < 500 {
			t.Fatalf("%s suspiciously small: %d params", name, c)
		}
	}
	// ShuffleNet 1.0 must be bigger than 0.5; MobileNet 0.8 bigger than 0.6.
	if counts["shufflenet-1.0"] <= counts["shufflenet-0.5"] {
		t.Fatal("net size multiplier did not scale shufflenet")
	}
	if counts["mobilenet-0.8"] <= counts["mobilenet-0.6"] {
		t.Fatal("width multiplier did not scale mobilenet")
	}
}

func TestGlobalModelLargerThanDevices(t *testing.T) {
	g := nn.NumParams(MustBuild("global", cifarShape, 10, tensor.NewRand(4)))
	for _, name := range CIFARZoo() {
		d := nn.NumParams(MustBuild(name, cifarShape, 10, tensor.NewRand(4)))
		if g <= d {
			t.Fatalf("global model (%d params) not larger than %s (%d)", g, name, d)
		}
	}
}

func TestZooFor(t *testing.T) {
	zoo := []string{"a", "b", "c"}
	got := ZooFor(zoo, 7)
	want := []string{"a", "b", "c", "a", "b", "c", "a"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("ZooFor = %v, want %v", got, want)
		}
	}
}

func TestGeneratorShapesAndRange(t *testing.T) {
	g := NewGenerator(32, cifarShape, tensor.NewRand(5))
	rng := tensor.NewRand(6)
	imgs := g.Forward(ag.Const(g.SampleZIn(tensor.NewArena(), 4, rng))).Value()
	s := imgs.Shape()
	if s[0] != 4 || s[1] != 3 || s[2] != 16 || s[3] != 16 {
		t.Fatalf("generator output shape %v", s)
	}
	for _, v := range imgs.Data() {
		if v < -1 || v > 1 {
			t.Fatalf("generator output %v outside [-1,1]", v)
		}
	}
}

func TestGeneratorGradientFlowsToParams(t *testing.T) {
	g := NewGenerator(16, smallShape, tensor.NewRand(7))
	z := ag.Const(g.SampleZIn(tensor.NewArena(), 3, tensor.NewRand(8)))
	out := g.Forward(z)
	ag.Backward(ag.MeanAll(ag.Mul(out, out)))
	nonzero := false
	for _, p := range g.Params() {
		if p.Grad() != nil && tensor.Norm2(p.Grad()) > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("no gradient reached generator parameters")
	}
}

func TestModelStateRoundTripAcrossSeeds(t *testing.T) {
	// A state dict captured from one randomly initialised model must load
	// into an independently initialised instance of the same architecture —
	// the exact operation FedZKT's parameter download performs.
	for _, name := range []string{"mobilenet-0.6", "shufflenet-0.5", "lenet"} {
		a := MustBuild(name, cifarShape, 10, tensor.NewRand(10))
		b := MustBuild(name, cifarShape, 10, tensor.NewRand(20))
		if err := nn.LoadState(b, nn.CaptureState(a)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a.SetTraining(false)
		b.SetTraining(false)
		x := tensor.New(2, 3, 16, 16)
		tensor.FillNormal(x, 0, 1, tensor.NewRand(30))
		ya := a.Forward(ag.Const(x)).Value()
		yb := b.Forward(ag.Const(x)).Value()
		if tensor.MaxAbsDiff(ya, yb) != 0 {
			t.Fatalf("%s: outputs differ after state transfer", name)
		}
	}
}

func TestDeterministicInitialization(t *testing.T) {
	a := MustBuild("cnn", smallShape, 10, tensor.NewRand(99))
	b := MustBuild("cnn", smallShape, 10, tensor.NewRand(99))
	sa, sb := nn.CaptureState(a), nn.CaptureState(b)
	for name, ta := range sa {
		if tensor.MaxAbsDiff(ta, sb[name]) != 0 {
			t.Fatalf("same seed produced different init for %s", name)
		}
	}
}
