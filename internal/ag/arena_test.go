package ag

import (
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// buildNet runs a composite forward touching every fused / in-place
// kernel family — fused Linear+bias, Conv2d (im2col memo), BatchNorm,
// max/avg/global pooling, ReLU/LeakyReLU/Tanh, reshape, softmax losses —
// over the given input wrapped in the given arena (nil = heap), and
// returns the scalar loss node.
func buildNet(ar *Arena, xt *tensor.Tensor, params map[string]*Variable) *Variable {
	x := ConstIn(ar, xt)
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
// slab nodes, fused first-accumulation, memoised im2col) to the heap path
// bit for bit: same inputs, same parameters, identical loss and identical
// gradients — repeatedly, across Reset cycles, so buffer recycling is
// exercised.
func TestArenaGradsBitIdenticalToHeap(t *testing.T) {
	xt := tensor.New(4, 1, 8, 8)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(11))

	heapP, arenaP := netParams(5), netParams(5)
	ar := NewArena()
	for step := 0; step < 3; step++ {
		lossH := buildNet(nil, xt, heapP)
		Backward(lossH)
		lossA := buildNet(ar, xt, arenaP)
		Backward(lossA)

		if hb, ab := math.Float64bits(lossH.Value().Data()[0]), math.Float64bits(lossA.Value().Data()[0]); hb != ab {
			t.Fatalf("step %d: loss differs: %x vs %x", step, hb, ab)
		}
		for name, hp := range heapP {
			ap := arenaP[name]
			if hp.Grad() == nil {
				if ap.Grad() != nil {
					t.Fatalf("step %d: %s: heap grad nil, arena grad set", step, name)
				}
				continue
			}
			hg, ag := hp.Grad().Data(), ap.Grad().Data()
			for i := range hg {
				if math.Float64bits(hg[i]) != math.Float64bits(ag[i]) {
					t.Fatalf("step %d: %s grad[%d] differs: %v vs %v", step, name, i, hg[i], ag[i])
				}
			}
			// Also confirm running statistics evolved identically.
			hr, ar2 := heapP["rm"].value.Data(), arenaP["rm"].value.Data()
			for i := range hr {
				if math.Float64bits(hr[i]) != math.Float64bits(ar2[i]) {
					t.Fatalf("step %d: running mean differs at %d", step, i)
				}
			}
		}
		for _, p := range heapP {
			p.ZeroGrad()
		}
		for _, p := range arenaP {
			p.ZeroGrad()
		}
		ar.Reset()
	}
}

// TestArenaConvColMemo pins the im2col memoisation: two modules
// forwarding the same input tensor in one step share one column matrix,
// and produce the same outputs as without sharing.
func TestArenaConvColMemo(t *testing.T) {
	xt := tensor.New(2, 1, 6, 6)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(3))
	wt := tensor.New(2, 1, 3, 3)
	tensor.FillNormal(wt, 0, 1, tensor.NewRand(4))

	ar := NewArena()
	x := ConstIn(ar, xt)
	y1 := Conv2d(x, Const(wt), nil, 1, 1)
	y2 := Conv2d(x, Const(wt.Clone()), nil, 1, 1)
	ref := Conv2d(Const(xt), Const(wt), nil, 1, 1) // heap, no memo
	for i, v := range ref.Value().Data() {
		if math.Float64bits(y1.Value().Data()[i]) != math.Float64bits(v) ||
			math.Float64bits(y2.Value().Data()[i]) != math.Float64bits(v) {
			t.Fatalf("memoised conv output differs at %d", i)
		}
	}
	// A third forward over the same input must not build a new col matrix:
	// it draws exactly the output and the (o×nsp) intermediate, each as
	// large as y1 (the weight-matrix view takes no storage) — a fresh col
	// would add ckk×nsp elements on top.
	before := ar.T.StepBytes()
	_ = Conv2d(x, Const(wt), nil, 1, 1)
	if got, want := ar.T.StepBytes()-before, int64(2*y1.Value().Len()*8); got != want {
		t.Fatalf("third conv forward drew %d bytes, want output+intermediate = %d", got, want)
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
		Backward(buildNet(ar, xt, params))
		ar.Reset()
	}
	held := ar.T.HeldBytes()
	for i := 0; i < 3; i++ {
		Backward(buildNet(ar, xt, params))
		ar.Reset()
	}
	if got := ar.T.HeldBytes(); got != held {
		t.Fatalf("arena grew across identical steps: %d -> %d bytes", held, got)
	}
}
