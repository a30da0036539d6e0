package ag

import (
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// buildNet runs a composite forward touching every fused / in-place
// kernel family — fused Linear+bias, Conv2d (im2col memo), BatchNorm,
// max/avg/global pooling, ReLU/LeakyReLU/Tanh, reshape, softmax losses —
// over the given input (whose arena, or none, the whole tape follows), and
// returns the scalar loss node.
func buildNet(x *Variable, params map[string]*Variable) *Variable {
	h := Conv2d(x, params["w1"], params["b1"], 1, 1)
	h = BatchNorm2d(h, params["gamma"], params["beta"], params["rm"].value, params["rv"].value, true, 0.1, 1e-5)
	h = ReLU(h)
	h = MaxPool2d(h, 2, 2)
	h = Conv2d(h, params["w2"], nil, 1, 1)
	h = LeakyReLU(h, 0.2)
	h = AvgPool2d(h, 2, 2)
	h = Flatten(h)
	h = Linear(h, params["w3"], params["b3"])
	h = Tanh(h)
	h = Linear(h, params["w4"], nil)
	return CrossEntropy(h, []int{1, 0, 2, 1})
}

func netParams(seed uint64) map[string]*Variable {
	rng := tensor.NewRand(seed)
	mk := func(shape ...int) *Variable {
		t := tensor.New(shape...)
		tensor.FillNormal(t, 0, 0.5, rng)
		return Param(t)
	}
	rm, rv := tensor.New(3), tensor.Full(1, 3)
	return map[string]*Variable{
		"w1": mk(3, 1, 3, 3), "b1": mk(3),
		"gamma": Param(tensor.Full(1, 3)), "beta": mk(3),
		"rm": NewVar(rm, false), "rv": NewVar(rv, false),
		"w2": mk(4, 3, 3, 3),
		"w3": mk(6, 4*2*2), "b3": mk(6),
		"w4": mk(3, 6),
	}
}

// TestArenaGradsBitIdenticalToHeap pins the arena path (recycled buffers,
// slab nodes, fused first-accumulation, lowerings and backward scratch
// released at their last read — NaN-filled on release, this being a test)
// to the heap path bit for bit: same inputs, same parameters, identical
// loss and identical gradients — repeatedly, across Reset cycles, so buffer
// recycling is exercised — in the four ways a conv meets its lowering:
// trainable (col kept for dW, dcol in its place), frozen weights under an
// input gradient (col gone before the forward returns), an input covered
// by a shared ColMemo (col not the node's to release), and a ForwardOnly
// arena (the same loss, no tape at all).
func TestArenaGradsBitIdenticalToHeap(t *testing.T) {
	xt := tensor.New(4, 1, 8, 8)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(11))

	for _, tc := range []struct {
		name                         string
		frozen, covered, forwardOnly bool
	}{
		{name: "trainable"},
		{name: "frozen weight", frozen: true},
		{name: "memo-covered input", covered: true},
		{name: "forward-only", forwardOnly: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heapP, arenaP := netParams(5), netParams(5)
			if tc.frozen {
				for _, p := range []map[string]*Variable{heapP, arenaP} {
					p["w1"].SetRequiresGrad(false)
					p["w2"].SetRequiresGrad(false)
				}
			}
			ar, phase := NewArena(), NewArena()
			memo := NewColMemo(phase)
			ar.ShareColMemo(memo)
			ar.ForwardOnly(tc.forwardOnly)
			for step := 0; step < 3; step++ {
				if tc.covered {
					memo.Rebind(xt)
				}
				xh, xa := NewVar(xt, tc.frozen), NewVarIn(ar, xt, tc.frozen)
				lossH := buildNet(xh, heapP)
				Backward(lossH)
				lossA := buildNet(xa, arenaP)
				Backward(lossA)

				if hb, ab := math.Float64bits(lossH.Value().Data()[0]), math.Float64bits(lossA.Value().Data()[0]); hb != ab {
					t.Fatalf("step %d: loss differs: %x vs %x", step, hb, ab)
				}
				if tc.forwardOnly {
					if lossA.RequiresGrad() {
						t.Fatalf("step %d: a ForwardOnly arena recorded a tape", step)
					}
					for name, ap := range arenaP {
						if ap.Grad() != nil {
							t.Fatalf("step %d: %s has a gradient after a ForwardOnly pass", step, name)
						}
					}
				}
				if tc.frozen {
					bitsEq(t, "input gradient", xa.Grad(), xh.Grad())
				}
				if tc.covered && len(memo.m) != 1 {
					t.Fatalf("step %d: memo holds %d lowerings, want the first layer's", step, len(memo.m))
				}
				for name, hp := range heapP {
					ap := arenaP[name]
					if hp.Grad() == nil || tc.forwardOnly {
						if ap.Grad() != nil {
							t.Fatalf("step %d: %s: heap grad nil, arena grad set", step, name)
						}
						continue
					}
					bitsEq(t, name+" grad", ap.Grad(), hp.Grad())
				}
				// Running statistics evolved identically.
				bitsEq(t, "running mean", arenaP["rm"].value, heapP["rm"].value)
				bitsEq(t, "running var", arenaP["rv"].value, heapP["rv"].value)
				for _, p := range heapP {
					p.ZeroGrad()
				}
				for _, p := range arenaP {
					p.ZeroGrad()
				}
				memo.Rebind(nil)
				ar.Reset()
				phase.Reset()
			}
		})
	}
}

// TestArenaConvColMemo pins who owns a conv's lowering on a private arena,
// by what is left live when Conv2d and Backward return: a frozen conv's
// column matrix and GEMM staging are back before Conv2d returns, a
// trainable conv keeps the column matrix exactly until its dW, and the
// backward's gy, dcol and dx are all back when it returns.
func TestArenaConvColMemo(t *testing.T) {
	xt := tensor.New(2, 1, 6, 6)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(3))
	wt := tensor.New(2, 1, 3, 3)
	tensor.FillNormal(wt, 0, 1, tensor.NewRand(4))
	const colBytes, outBytes, xBytes = 9 * 2 * 36 * 8, 2 * 2 * 36 * 8, 2 * 36 * 8
	// What Backward(SumAll(y)) leaves besides y's gradient: the loss
	// value, the seed and the loss gradient, one element each.
	const scalars = 3 * 8

	ar := NewArena()
	ref := Conv2d(Const(xt), Const(wt), nil, 1, 1) // heap

	x := ConstIn(ar, xt)
	before := ar.T.StepBytes()
	y := Conv2d(x, Const(wt), nil, 1, 1)
	bitsEq(t, "frozen conv vs heap", y.Value(), ref.Value())
	if got := ar.T.StepBytes() - before; got != outBytes {
		t.Fatalf("frozen conv left %d bytes live, want its output = %d", got, outBytes)
	}

	w := Param(wt.Clone())
	before = ar.T.StepBytes()
	y = Conv2d(x, w, nil, 1, 1)
	bitsEq(t, "trainable conv vs heap", y.Value(), ref.Value())
	if got := ar.T.StepBytes() - before; got != outBytes+colBytes {
		t.Fatalf("trainable conv left %d bytes live, want output + column matrix = %d", got, outBytes+colBytes)
	}
	Backward(SumAll(y))
	if got := ar.T.StepBytes() - before; got != 2*outBytes+scalars {
		t.Fatalf("after its backward a trainable conv holds %d bytes, want output + output gradient = %d", got, 2*outBytes+scalars)
	}

	// Frozen weight under an input gradient: dcol and dx come and go.
	xg := NewVarIn(ar, xt, true)
	before = ar.T.StepBytes()
	Backward(SumAll(Conv2d(xg, Const(wt), nil, 1, 1)))
	if got := ar.T.StepBytes() - before; got != 2*outBytes+scalars+xBytes {
		t.Fatalf("an input-gradient backward left %d bytes live, want output, its gradient and dX = %d", got, 2*outBytes+scalars+xBytes)
	}
	if peak := ar.T.StepPeakBytes(); peak >= ar.T.StepBytes()+2*colBytes {
		t.Fatalf("step peaked at %d bytes with %d live: col and dcol were held together", peak, ar.T.StepBytes())
	}
	ar.Reset()
}

// TestArenaStepScopedReuse checks that consecutive steps on one arena
// recycle rather than grow: after a warm-up step, further identical steps
// leave the arena's footprint unchanged.
func TestArenaStepScopedReuse(t *testing.T) {
	xt := tensor.New(4, 1, 8, 8)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(21))
	params := netParams(9)
	ar := NewArena()
	for i := 0; i < 2; i++ { // warm-up
		Backward(buildNet(ConstIn(ar, xt), params))
		ar.Reset()
	}
	held := ar.T.HeldBytes()
	for i := 0; i < 3; i++ {
		Backward(buildNet(ConstIn(ar, xt), params))
		ar.Reset()
	}
	if got := ar.T.HeldBytes(); got != held {
		t.Fatalf("arena grew across identical steps: %d -> %d bytes", held, got)
	}
}
