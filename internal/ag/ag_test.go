package ag

import (
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward root")
		}
	}()
	Backward(Param(tensor.New(2, 2)))
}

func TestNoGradBuildsNoGraph(t *testing.T) {
	a := Const(tensor.Full(1, 2, 2))
	b := Const(tensor.Full(2, 2, 2))
	c := Add(Mul(a, b), a)
	if c.RequiresGrad() {
		t.Fatal("op over constants must not require grad")
	}
	if c.nparents != 0 || c.back != nil {
		t.Fatal("op over constants must not record tape state")
	}
}

func TestGradientAccumulatesAcrossUses(t *testing.T) {
	// y = x + x → dy/dx = 2 everywhere.
	x := Param(tensor.Full(3, 2))
	Backward(SumAll(Add(x, x)))
	for _, g := range x.Grad().Data() {
		if g != 2 {
			t.Fatalf("grad = %v, want 2", g)
		}
	}
}

func TestGradientAccumulatesAcrossBackwardCalls(t *testing.T) {
	x := Param(tensor.Full(1, 3))
	Backward(SumAll(x))
	Backward(SumAll(x))
	for _, g := range x.Grad().Data() {
		if g != 2 {
			t.Fatalf("grad = %v, want 2 after two backward passes", g)
		}
	}
	x.ZeroGrad()
	for _, g := range x.Grad().Data() {
		if g != 0 {
			t.Fatal("ZeroGrad did not clear")
		}
	}
}

func TestFrozenLeafReceivesNoGrad(t *testing.T) {
	x := Param(tensor.Full(1, 2))
	w := Param(tensor.Full(3, 2))
	w.SetRequiresGrad(false)
	Backward(SumAll(Mul(x, w)))
	if w.Grad() != nil {
		t.Fatal("frozen leaf accumulated a gradient")
	}
	if x.Grad() == nil {
		t.Fatal("gradient must still flow through the frozen leaf's op")
	}
	for _, g := range x.Grad().Data() {
		if g != 3 {
			t.Fatalf("x grad = %v, want 3", g)
		}
	}
}

func TestSetRequiresGradPanicsOnNonLeaf(t *testing.T) {
	x := Param(tensor.Full(1, 2))
	y := Add(x, x)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	y.SetRequiresGrad(false)
}

// TestGradThroughFrozenNetworkToInput mirrors FedZKT's generator update:
// the teacher network parameters are frozen, yet the gradient with respect
// to the *input* must be exact.
func TestGradThroughFrozenNetworkToInput(t *testing.T) {
	rng := tensor.NewRand(7)
	w := tensor.New(4, 6)
	tensor.FillNormal(w, 0, 1, rng)
	wv := Param(w)
	wv.SetRequiresGrad(false)

	xt := tensor.New(2, 6)
	tensor.FillNormal(xt, 0, 1, rng)
	x := Param(xt)

	build := func() *Variable {
		h := Tanh(Linear(x, wv, nil))
		return MeanAll(Mul(h, h))
	}
	Backward(build())
	analytic := x.Grad()
	numeric := numGrad(t, xt, func() float64 { return build().Value().Data()[0] })
	if d := tensor.MaxAbsDiff(analytic, numeric); d > 1e-6 {
		t.Fatalf("input gradient through frozen net off by %g", d)
	}
	if wv.Grad() != nil {
		t.Fatal("frozen teacher weights must not accumulate gradients")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := tensor.NewRand(3)
	x := tensor.New(5, 7)
	tensor.FillNormal(x, 0, 3, rng)
	p := SoftmaxRows(x)
	for r := 0; r < 5; r++ {
		s := 0.0
		for c := 0; c < 7; c++ {
			v := p.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of [0,1]: %v", v)
			}
			s += v
		}
		if d := s - 1; d > 1e-12 || d < -1e-12 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 5, 1,
		1, 0, 9,
		3, 2, 1,
	}, 4, 3)
	if got := Accuracy(logits, []int{0, 1, 2, 2}); got != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
}

func TestDeepGraphIterativeTopo(t *testing.T) {
	// 10k chained adds would overflow a recursive DFS; the iterative
	// traversal must handle it.
	x := Param(tensor.Full(1, 1))
	v := x
	for i := 0; i < 10000; i++ {
		v = Add(v, x)
	}
	Backward(SumAll(v))
	if g := x.Grad().Data()[0]; g != 10001 {
		t.Fatalf("deep chain grad = %v, want 10001", g)
	}
}
