package ag

import (
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// buildNet runs a composite forward touching every fused / in-place
// kernel family — fused Linear+bias, Conv2d (tiled im2col), BatchNorm,
// max/avg/global pooling, ReLU/LeakyReLU/Tanh, reshape, softmax losses —
// over the given input (whose arena the whole tape follows), and returns
// the scalar loss node.
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

// interior lists the nodes of root's tape that have a backward, in a fixed
// depth-first order: two tapes recorded by the same forward list
// corresponding nodes at the same index.
func interior(root *Variable) []*Variable {
	var out []*Variable
	seen := map[*Variable]bool{}
	var walk func(v *Variable)
	walk = func(v *Variable) {
		if v.back == nil || seen[v] {
			return
		}
		seen[v] = true
		out = append(out, v)
		for _, p := range v.parents[:v.nparents] {
			walk(p)
		}
	}
	walk(root)
	return out
}

// TestArenaConvLoweringOwnership pins who owns a conv's lowering on a
// private arena, by what is left live when Conv2d and Backward return: no
// lowering and no GEMM staging outlives the forward, frozen or trainable —
// a trainable conv leaves only its output live and keeps its input for the
// backward, which lowers it again — and the backward's gy, column blocks,
// dcol and dx tiles — and the seed and every interior gradient — are all
// back when it returns. Only a leaf's gradient stays.
func TestArenaConvLoweringOwnership(t *testing.T) {
	xt := tensor.New(2, 1, 6, 6)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(3))
	wt := tensor.New(2, 1, 3, 3)
	tensor.FillNormal(wt, 0, 1, tensor.NewRand(4))
	const colBytes, outBytes, xBytes = 9 * 2 * 36 * 8, 2 * 2 * 36 * 8, 2 * 36 * 8
	// What Backward(SumAll(y)) leaves besides the conv's own output: the
	// loss value.
	const scalar = 8

	ar := NewArena()
	ref := Conv2d(ConstIn(NewArena(), xt), Const(wt), nil, 1, 1) // an arena of its own

	x := ConstIn(ar, xt)
	before := ar.T.StepBytes()
	y := Conv2d(x, Const(wt), nil, 1, 1)
	bitsEq(t, "frozen conv vs fresh arena", y.Value(), ref.Value())
	if got := ar.T.StepBytes() - before; got != outBytes {
		t.Fatalf("frozen conv left %d bytes live, want its output = %d", got, outBytes)
	}

	w := Param(wt.Clone())
	before = ar.T.StepBytes()
	y = Conv2d(x, w, nil, 1, 1)
	bitsEq(t, "trainable conv vs fresh arena", y.Value(), ref.Value())
	if got := ar.T.StepBytes() - before; got != outBytes {
		t.Fatalf("trainable conv left %d bytes live, want its output = %d", got, outBytes)
	}
	if !x.pinned {
		t.Fatal("a trainable conv did not declare that its backward reads its input")
	}
	Backward(SumAll(y))
	if got := ar.T.StepBytes() - before; got != outBytes+scalar {
		t.Fatalf("after its backward a trainable conv holds %d bytes, want its output = %d", got, outBytes+scalar)
	}

	// Trainable weight under an input gradient: the dW blocks, then the
	// dX tiles, come and go one at a time, and dX stays — it is a leaf's
	// gradient.
	for _, w := range []*Variable{Const(wt), Param(wt.Clone())} {
		xg := NewVarIn(ar, xt, true)
		before = ar.T.StepBytes()
		Backward(SumAll(Conv2d(xg, w, nil, 1, 1)))
		if got := ar.T.StepBytes() - before; got != outBytes+scalar+xBytes {
			t.Fatalf("an input-gradient backward left %d bytes live, want output and dX = %d", got, outBytes+scalar+xBytes)
		}
		if peak := ar.T.StepPeakBytes(); peak >= ar.T.StepBytes()+2*colBytes {
			t.Fatalf("step peaked at %d bytes with %d live: two lowerings were held together", peak, ar.T.StepBytes())
		}
	}
	ar.Reset()
}

// TestArenaBackwardReleasesInteriorGrads pins what a buildNet step's
// backward holds at once: each interior gradient goes back as soon as its
// node's backward has consumed it, whether or not the input is
// differentiated — its gradient, a leaf's, stays. buildNet's step peaked
// at 72,336 bytes while the forward kept its two convs' lowerings
// (32,256 bytes) for dW; now that a trainable conv keeps its input and
// lowers it again in the backward, the peak stays below that: 63,896
// bytes, 67,776 with the input differentiated. Interior gradients held to
// the end of the step take it to 83,424 and 87,304.
func TestArenaBackwardReleasesInteriorGrads(t *testing.T) {
	const oldPeak = 72336
	xt := tensor.New(4, 1, 8, 8)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(21))
	for _, inputGrad := range []bool{false, true} {
		ar := NewArena()
		loss := buildNet(NewVarIn(ar, xt, inputGrad), netParams(9))
		forward := ar.T.StepBytes()
		Backward(loss)
		if peak := ar.T.StepPeakBytes(); peak >= oldPeak {
			t.Errorf("input gradient %v: step peaked at %d bytes, %d live after the forward: not below the %d the step peaked at with the lowerings kept",
				inputGrad, peak, forward, oldPeak)
		}
	}
}

// TestDiscardKeepsWhatBackwardReads: in a recorded step, Discard hands
// back a chain value that no recorded backward declared it reads and
// leaves the rest — a value an op declared, a view of one (the declaration
// pins the storage the view shares), and a leaf.
func TestDiscardKeepsWhatBackwardReads(t *testing.T) {
	p := netParams(7)
	xt := tensor.New(4, 1, 8, 8)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(8))
	ar := NewArena()
	x := ConstIn(ar, xt)
	h1 := Conv2d(x, p["w1"], p["b1"], 1, 1) // BatchNorm reads neither x nor y
	h2 := BatchNorm2d(h1, p["gamma"], p["beta"], p["rm"].value, p["rv"].value, true, 0.1, 1e-5)
	h3 := ReLU(h2) // reads its input
	h4 := MaxPool2d(h3, 2, 2)
	h5 := Flatten(h4) // a view; the trainable Linear reads it
	Linear(h5, Param(tensor.New(2, 3*4*4)), nil)
	for _, v := range []*Variable{x, h1, h2, h3, h4} {
		Discard(v)
	}
	// A released value reads NaN in a test binary; no live one here does.
	released := func(v *Variable) bool {
		for _, f := range v.value.Data() {
			if f == f {
				return false
			}
		}
		return true
	}
	for name, v := range map[string]*Variable{"conv output": h1, "pool input": h3} {
		if !released(v) {
			t.Errorf("the %s no backward reads was not discarded", name)
		}
	}
	for name, v := range map[string]*Variable{"input (a leaf)": x, "ReLU input": h2, "viewed pool output": h4} {
		if released(v) {
			t.Errorf("the %s was discarded, yet a backward reads it", name)
		}
	}
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
