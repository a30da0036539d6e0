package nn

import (
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := tensor.NewRand(1)
	l := NewLinear(4, 3, true, rng)
	x := ag.Const(tensor.New(5, 4))
	y := l.Forward(x)
	if s := y.Shape(); s[0] != 5 || s[1] != 3 {
		t.Fatalf("Linear output shape %v", s)
	}
	if n := NumParams(l); n != 4*3+3 {
		t.Fatalf("NumParams = %d, want 15", n)
	}
	lnb := NewLinear(4, 3, false, rng)
	if n := NumParams(lnb); n != 12 {
		t.Fatalf("NumParams (no bias) = %d, want 12", n)
	}
}

func TestConvShapes(t *testing.T) {
	rng := tensor.NewRand(2)
	c := NewConv2d(3, 8, 3, 2, 1, true, rng)
	x := ag.Const(tensor.New(2, 3, 8, 8))
	y := c.Forward(x)
	s := y.Shape()
	if s[0] != 2 || s[1] != 8 || s[2] != 4 || s[3] != 4 {
		t.Fatalf("Conv2d output shape %v", s)
	}
	d := NewDepthwiseConv2d(8, 3, 1, 1, false, rng)
	y2 := d.Forward(y)
	s2 := y2.Shape()
	if s2[1] != 8 || s2[2] != 4 {
		t.Fatalf("DW output shape %v", s2)
	}
}

func TestGlorotInitRange(t *testing.T) {
	rng := tensor.NewRand(3)
	l := NewLinear(100, 50, false, rng)
	bound := 0.2 // sqrt(6/150) ≈ 0.2
	for _, v := range l.W.Value().Data() {
		if v < -bound-1e-9 || v > bound+1e-9 {
			t.Fatalf("Glorot init out of range: %v (bound %v)", v, bound)
		}
	}
	// And not all zero.
	if tensor.Norm2(l.W.Value()) == 0 {
		t.Fatal("weights all zero")
	}
}

func TestSequentialForwardAndStateNames(t *testing.T) {
	rng := tensor.NewRand(4)
	m := NewSequential(
		NewConv2d(1, 4, 3, 1, 1, false, rng),
		NewBatchNorm2d(4),
		ReLU{},
		MaxPool2d{K: 2, Stride: 2},
		Flatten{},
		NewLinear(4*4*4, 10, true, rng),
	)
	x := ag.Const(tensor.New(3, 1, 8, 8))
	y := m.Forward(x)
	if s := y.Shape(); s[0] != 3 || s[1] != 10 {
		t.Fatalf("output shape %v", s)
	}
	sd := CaptureState(m)
	// conv w, bn gamma/beta/run_mean/run_var, linear w/b = 7 entries.
	if len(sd) != 7 {
		t.Fatalf("state entries = %d, want 7: %v", len(sd), sd.Names())
	}
	for _, n := range sd.Names() {
		if !strings.Contains(n, ".") {
			t.Fatalf("state name %q not namespaced", n)
		}
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	rng := tensor.NewRand(5)
	m := NewSequential(
		NewConv2d(2, 3, 3, 1, 1, true, rng),
		NewBatchNorm2d(3),
		ReLU{},
		Flatten{},
		NewLinear(3*6*6, 5, true, rng),
	)
	// Mutate running stats so they are nontrivial.
	m.Forward(ag.Const(tensor.Full(0.5, 2, 2, 6, 6)))

	src := CaptureState(m)
	// A copy, as a slot or a payload would hold it: m2 must not alias m.
	dec := src.Clone()

	m2 := NewSequential(
		NewConv2d(2, 3, 3, 1, 1, true, tensor.NewRand(99)),
		NewBatchNorm2d(3),
		ReLU{},
		Flatten{},
		NewLinear(3*6*6, 5, true, tensor.NewRand(98)),
	)
	if err := LoadState(m2, dec); err != nil {
		t.Fatal(err)
	}
	for name, want := range src {
		got := CaptureState(m2)[name]
		if tensor.MaxAbsDiff(got, want) != 0 {
			t.Fatalf("state %q differs after round trip", name)
		}
	}

	// Forward passes now agree.
	m.SetTraining(false)
	m2.SetTraining(false)
	x := ag.Const(tensor.Full(0.3, 1, 2, 6, 6))
	y1 := m.Forward(x).Value()
	y2 := m2.Forward(x).Value()
	if tensor.MaxAbsDiff(y1, y2) != 0 {
		t.Fatal("models disagree after state transfer")
	}
}

func TestLoadStateErrors(t *testing.T) {
	rng := tensor.NewRand(6)
	m := NewLinear(3, 2, true, rng)
	sd := CaptureState(m).Clone()

	delete(sd, "b")
	if err := LoadState(m, sd); err == nil {
		t.Fatal("want error for missing entry")
	}

	sd = CaptureState(m).Clone()
	sd["extra"] = tensor.New(1)
	if err := LoadState(m, sd); err == nil {
		t.Fatal("want error for extra entry")
	}

	sd = CaptureState(m).Clone()
	sd["w"] = tensor.New(1)
	if err := LoadState(m, sd); err == nil {
		t.Fatal("want error for shape mismatch")
	}
}

func TestBatchNormTrainEvalMode(t *testing.T) {
	bn := NewBatchNorm2d(2)
	x := ag.Const(tensor.Full(3, 4, 2, 2, 2))
	bn.SetTraining(true)
	bn.Forward(x)
	if bn.RunMean.Data()[0] == 0 {
		t.Fatal("training forward must update running mean")
	}
	rm := bn.RunMean.Clone()
	bn.SetTraining(false)
	bn.Forward(x)
	if tensor.MaxAbsDiff(rm, bn.RunMean) != 0 {
		t.Fatal("eval forward must not update running stats")
	}
}

func TestSetTrainableFreezesParams(t *testing.T) {
	rng := tensor.NewRand(7)
	m := NewLinear(3, 2, true, rng)
	SetTrainable(m, false)
	x := ag.Param(tensor.Full(1, 1, 3))
	loss := ag.MeanAll(m.Forward(x))
	ag.Backward(loss)
	if m.W.Grad() != nil {
		t.Fatal("frozen parameter accumulated gradient")
	}
	if x.Grad() == nil {
		t.Fatal("gradient should flow through frozen layer to input")
	}
}

// Compile-time interface compliance checks for every layer type.
var (
	_ Module = (*Linear)(nil)
	_ Module = (*Conv2d)(nil)
	_ Module = (*DepthwiseConv2d)(nil)
	_ Module = (*BatchNorm2d)(nil)
	_ Module = (*BatchNorm1d)(nil)
	_ Module = ReLU{}
	_ Module = ReLU6{}
	_ Module = LeakyReLU{}
	_ Module = Tanh{}
	_ Module = MaxPool2d{}
	_ Module = GlobalAvgPool{}
	_ Module = Flatten{}
	_ Module = Upsample2x{}
	_ Module = (*Sequential)(nil)
)

// stateTestModule builds a small module with both parameters and buffers
// (BatchNorm), so state copies must carry running statistics too.
func stateTestModule(seed uint64) Module {
	rng := tensor.NewRand(seed)
	return NewSequential(
		NewLinear(4, 8, true, rng),
		NewBatchNorm1d(8),
		ReLU{},
		NewLinear(8, 3, true, rng),
	)
}

// TestLoadedStateVisibleThroughParams pins the property slot stores depend
// on when they decode a state into a pooled module's captured dict: the
// write changes the values seen through the module's existing Param
// variables (and thus optimisers bound to them) without re-binding
// anything.
func TestLoadedStateVisibleThroughParams(t *testing.T) {
	m := stateTestModule(3)
	p := m.Params()[0]
	before := p.Value().Data()[0]

	x := tensor.New(2, 4)
	x.Fill(1)
	m.SetTraining(false)
	y1 := m.Forward(ag.Const(x)).Value().Clone()
	if err := CaptureState(m).LoadFrom(CaptureState(stateTestModule(4))); err != nil {
		t.Fatal(err)
	}
	if p.Value().Data()[0] == before {
		t.Fatal("loaded state not visible through previously captured Param variable")
	}
	// A forward pass after the load must use the loaded values.
	y2 := m.Forward(ag.Const(x)).Value()
	if tensor.MaxAbsDiff(y1, y2) == 0 {
		t.Fatal("forward outputs identical across different loaded states")
	}
}

func TestStateDictLoadFrom(t *testing.T) {
	dst := CaptureState(stateTestModule(9)).Clone()
	src := CaptureState(stateTestModule(10)).Clone()
	if err := dst.LoadFrom(src); err != nil {
		t.Fatal(err)
	}
	for name, want := range src {
		if tensor.MaxAbsDiff(dst[name], want) != 0 {
			t.Fatalf("state %q not copied", name)
		}
	}
	// Mismatched keys fail loudly.
	bad := src.Clone()
	n := bad.Names()[0]
	bad["renamed"] = bad[n]
	delete(bad, n)
	if err := dst.LoadFrom(bad); err == nil {
		t.Fatal("want error for mismatched keys")
	}
	// Size mismatch fails loudly.
	short := src.Clone()
	delete(short, short.Names()[0])
	if err := dst.LoadFrom(short); err == nil {
		t.Fatal("want error for size mismatch")
	}
	// Length mismatch fails loudly.
	wrong := src.Clone()
	wrong[wrong.Names()[0]] = tensor.New(1)
	if err := dst.LoadFrom(wrong); err == nil {
		t.Fatal("want error for length mismatch")
	}
}
