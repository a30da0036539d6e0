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

// TestArenaGradsBitIdenticalToHeap pins the arena path (recycled buffers,
// slab nodes, fused first-accumulation, lowerings, backward scratch and
// interior gradients released at their last read — NaN-filled on release,
// this being a test) to the heap path bit for bit: same inputs, same
// parameters, identical loss and identical leaf gradients — repeatedly,
// across Reset cycles, so buffer recycling is exercised — in the four ways
// a conv meets its lowering: trainable (col kept for dW, dcol in its
// place), frozen weights under an input gradient (col gone before the
// forward returns), an input covered by a shared ColMemo (col not the
// node's to release), and a ForwardOnly arena (the same loss, no tape at
// all). On both paths every interior gradient is gone when Backward
// returns, except on the nodes the retained row marks with RetainGrad,
// which read the same bits on both.
func TestArenaGradsBitIdenticalToHeap(t *testing.T) {
	xt := tensor.New(4, 1, 8, 8)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(11))

	for _, tc := range []struct {
		name                                   string
		frozen, covered, forwardOnly, retained bool
	}{
		{name: "trainable"},
		{name: "frozen weight", frozen: true},
		{name: "memo-covered input", covered: true},
		{name: "forward-only", forwardOnly: true},
		{name: "retained", retained: true},
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
				lossA := buildNet(xa, arenaP)
				tapeH, tapeA := interior(lossH), interior(lossA)
				if !tc.forwardOnly && len(tapeA) != len(tapeH) {
					t.Fatalf("step %d: arena tape has %d nodes, heap tape %d", step, len(tapeA), len(tapeH))
				}
				if tc.retained {
					// Every other node, so a retained gradient sits between
					// released ones on the arena.
					for i := 0; i < len(tapeH); i += 2 {
						tapeH[i].RetainGrad()
						tapeA[i].RetainGrad()
					}
				}
				Backward(lossH)
				Backward(lossA)

				for i, n := range tapeH {
					if tc.retained && i%2 == 0 {
						if n.Grad() == nil || tapeA[i].Grad() == nil {
							t.Fatalf("step %d: retained node %d lost its gradient", step, i)
						}
						bitsEq(t, "retained interior grad", tapeA[i].Grad(), n.Grad())
					} else if n.Grad() != nil {
						t.Fatalf("step %d: heap interior node %d kept its gradient past Backward", step, i)
					}
				}
				for i, n := range tapeA {
					if n.Grad() != nil && !(tc.retained && i%2 == 0) {
						t.Fatalf("step %d: arena interior node %d kept its gradient past Backward", step, i)
					}
				}

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
// backward's gy, dcol and dx — and the seed and every interior gradient —
// are all back when it returns. Only a leaf's gradient stays.
func TestArenaConvColMemo(t *testing.T) {
	xt := tensor.New(2, 1, 6, 6)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(3))
	wt := tensor.New(2, 1, 3, 3)
	tensor.FillNormal(wt, 0, 1, tensor.NewRand(4))
	const colBytes, outBytes, xBytes = 9 * 2 * 36 * 8, 2 * 2 * 36 * 8, 2 * 36 * 8
	// What Backward(SumAll(y)) leaves besides the conv's own output: the
	// loss value.
	const scalar = 8

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
	if got := ar.T.StepBytes() - before; got != outBytes+scalar {
		t.Fatalf("after its backward a trainable conv holds %d bytes, want its output = %d", got, outBytes+scalar)
	}

	// Frozen weight under an input gradient: dcol and dx come and go, and
	// dX stays — it is a leaf's gradient.
	xg := NewVarIn(ar, xt, true)
	before = ar.T.StepBytes()
	Backward(SumAll(Conv2d(xg, Const(wt), nil, 1, 1)))
	if got := ar.T.StepBytes() - before; got != outBytes+scalar+xBytes {
		t.Fatalf("an input-gradient backward left %d bytes live, want output and dX = %d", got, outBytes+scalar+xBytes)
	}
	if peak := ar.T.StepPeakBytes(); peak >= ar.T.StepBytes()+2*colBytes {
		t.Fatalf("step peaked at %d bytes with %d live: col and dcol were held together", peak, ar.T.StepBytes())
	}
	ar.Reset()
}

// TestArenaBackwardReleasesInteriorGrads pins what a buildNet step's
// backward holds at once: its step peak stays below what the forward left
// live plus half of the interior gradients the tape creates, because each
// goes back as soon as its node's backward has consumed it (28 % here;
// held to the end of the step, they made it 70–86 %), whether or not the
// input is differentiated — its gradient, a leaf's, stays.
func TestArenaBackwardReleasesInteriorGrads(t *testing.T) {
	xt := tensor.New(4, 1, 8, 8)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(21))
	for _, inputGrad := range []bool{false, true} {
		ar := NewArena()
		loss := buildNet(NewVarIn(ar, xt, inputGrad), netParams(9))
		forward := ar.T.StepBytes()
		var grads int64
		for _, n := range interior(loss) {
			grads += int64(n.value.Len()) * 8
		}
		Backward(loss)
		if peak := ar.T.StepPeakBytes(); peak >= forward+grads/2 {
			t.Errorf("input gradient %v: step peaked at %d bytes, %d live after the forward: the backward rose %d above it, with %d bytes of interior gradients on the tape",
				inputGrad, peak, forward, peak-forward, grads)
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
