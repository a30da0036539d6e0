package ag

import (
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// numGrad computes the central finite-difference gradient of f with respect
// to the leaf x, where f rebuilds the graph from scratch on each call (so
// perturbations propagate).
func numGrad(t *testing.T, x *tensor.Tensor, f func() float64) *tensor.Tensor {
	t.Helper()
	const h = 1e-5
	g := tensor.New(x.Shape()...)
	d := x.Data()
	for i := range d {
		orig := d[i]
		d[i] = orig + h
		fp := f()
		d[i] = orig - h
		fm := f()
		d[i] = orig
		g.Data()[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrads compares analytic and numeric gradients for every leaf.
func checkGrads(t *testing.T, name string, build func() *Variable, leaves map[string]*Variable) {
	t.Helper()
	loss := build()
	if loss.Value().Len() != 1 {
		t.Fatalf("%s: loss not scalar", name)
	}
	Backward(loss)
	for ln, leaf := range leaves {
		analytic := leaf.Grad()
		if analytic == nil {
			t.Fatalf("%s: leaf %s has nil grad", name, ln)
		}
		numeric := numGrad(t, leaf.Value(), func() float64 {
			return build().Value().Data()[0]
		})
		diff := tensor.MaxAbsDiff(analytic, numeric)
		scale := 1 + tensor.Norm2(numeric)
		if diff/scale > 2e-5 {
			t.Errorf("%s: leaf %s gradient mismatch: max|Δ|=%g (scale %g)\nanalytic=%v\nnumeric=%v",
				name, ln, diff, scale, analytic, numeric)
		}
	}
}

func randVar(seed uint64, requiresGrad bool, shape ...int) *Variable {
	rng := tensor.NewRand(seed)
	x := tensor.New(shape...)
	tensor.FillNormal(x, 0, 1, rng)
	return NewVar(x, requiresGrad)
}

func TestGradAddSubMulScale(t *testing.T) {
	a := randVar(1, true, 3, 4)
	b := randVar(2, true, 3, 4)
	checkGrads(t, "add", func() *Variable { return SumAll(Add(a, b)) }, map[string]*Variable{"a": a, "b": b})

	a2 := randVar(3, true, 2, 5)
	b2 := randVar(4, true, 2, 5)
	checkGrads(t, "sub-mul", func() *Variable {
		return SumAll(Mul(Sub(a2, b2), a2))
	}, map[string]*Variable{"a": a2, "b": b2})

	c := randVar(5, true, 4)
	checkGrads(t, "scale-mean", func() *Variable { return MeanAll(Scale(3.5, c)) }, map[string]*Variable{"c": c})
}

func TestGradAbs(t *testing.T) {
	a := randVar(6, true, 3, 3)
	// Shift away from 0 to avoid the kink in finite differences.
	for i, v := range a.Value().Data() {
		if math.Abs(v) < 0.1 {
			a.Value().Data()[i] = 0.2
		}
	}
	checkGrads(t, "abs", func() *Variable { return SumAll(Abs(a)) }, map[string]*Variable{"a": a})
}

func TestGradMatMulLinear(t *testing.T) {
	x := randVar(8, true, 4, 3)
	w := randVar(9, true, 5, 3) // x·wᵀ, no bias: the bare matrix product
	checkGrads(t, "matmul", func() *Variable { return SumAll(Linear(x, w, nil)) },
		map[string]*Variable{"x": x, "w": w})

	x2 := randVar(10, true, 4, 6)
	w2 := randVar(11, true, 5, 6) // Linear: (out×in)
	b2 := randVar(12, true, 5)
	checkGrads(t, "linear", func() *Variable {
		return MeanAll(Mul(Linear(x2, w2, b2), Linear(x2, w2, b2)))
	}, map[string]*Variable{"x": x2, "w": w2, "b": b2})
}

func TestGradActivations(t *testing.T) {
	mk := func(seed uint64) *Variable {
		v := randVar(seed, true, 3, 4)
		// Nudge values away from kinks (0 for relu/leaky, 6 for relu6).
		for i, x := range v.Value().Data() {
			if math.Abs(x) < 0.05 || math.Abs(x-6) < 0.05 {
				v.Value().Data()[i] = x + 0.3
			}
		}
		return v
	}
	cases := []struct {
		name string
		f    func(*Variable) *Variable
	}{
		{"relu", ReLU},
		{"relu6", ReLU6},
		{"leaky", func(v *Variable) *Variable { return LeakyReLU(v, 0.2) }},
		{"tanh", Tanh},
	}
	for i, tc := range cases {
		x := mk(uint64(20 + i))
		checkGrads(t, tc.name, func() *Variable { return SumAll(tc.f(x)) },
			map[string]*Variable{"x": x})
	}
}

func TestGradSoftmaxLogSoftmax(t *testing.T) {
	x := randVar(30, true, 3, 5)
	w := randVar(31, false, 3, 5) // random weighting to make grads nontrivial
	checkGrads(t, "softmax", func() *Variable {
		return SumAll(Mul(Softmax(x), w))
	}, map[string]*Variable{"x": x})

	x2 := randVar(32, true, 4, 6)
	w2 := randVar(33, false, 4, 6)
	checkGrads(t, "logsoftmax", func() *Variable {
		return SumAll(Mul(LogSoftmax(x2), w2))
	}, map[string]*Variable{"x": x2})
}

func TestGradLog(t *testing.T) {
	x := randVar(34, true, 3, 3)
	for i, v := range x.Value().Data() {
		x.Value().Data()[i] = math.Abs(v) + 0.5 // keep well above the clamp
	}
	checkGrads(t, "log", func() *Variable { return SumAll(Log(x)) }, map[string]*Variable{"x": x})
}

func TestGradConv2d(t *testing.T) {
	x := randVar(40, true, 2, 3, 5, 5)
	w := randVar(41, true, 4, 3, 3, 3)
	b := randVar(42, true, 4)
	checkGrads(t, "conv-s1p1", func() *Variable {
		y := Conv2d(x, w, b, 1, 1)
		return MeanAll(Mul(y, y))
	}, map[string]*Variable{"x": x, "w": w, "b": b})

	x2 := randVar(43, true, 1, 2, 6, 6)
	w2 := randVar(44, true, 3, 2, 3, 3)
	checkGrads(t, "conv-s2p1-nobias", func() *Variable {
		y := Conv2d(x2, w2, nil, 2, 1)
		return SumAll(y)
	}, map[string]*Variable{"x": x2, "w": w2})
}

func TestGradDepthwiseConv2d(t *testing.T) {
	x := randVar(50, true, 2, 3, 5, 5)
	w := randVar(51, true, 3, 3, 3)
	b := randVar(52, true, 3)
	checkGrads(t, "dwconv", func() *Variable {
		y := DepthwiseConv2d(x, w, b, 1, 1)
		return MeanAll(Mul(y, y))
	}, map[string]*Variable{"x": x, "w": w, "b": b})

	x2 := randVar(53, true, 1, 2, 6, 6)
	w2 := randVar(54, true, 2, 3, 3)
	checkGrads(t, "dwconv-s2", func() *Variable {
		return SumAll(DepthwiseConv2d(x2, w2, nil, 2, 1))
	}, map[string]*Variable{"x": x2, "w": w2})
}

func TestGradPooling(t *testing.T) {
	x := randVar(60, true, 2, 2, 6, 6)
	checkGrads(t, "maxpool", func() *Variable {
		return SumAll(Mul(MaxPool2d(x, 2, 2), MaxPool2d(x, 2, 2)))
	}, map[string]*Variable{"x": x})

	x3 := randVar(62, true, 2, 3, 4, 4)
	checkGrads(t, "gap", func() *Variable {
		y := GlobalAvgPool(x3)
		return MeanAll(Mul(y, y))
	}, map[string]*Variable{"x": x3})
}

func TestGradShapeOps(t *testing.T) {
	x := randVar(70, true, 2, 4, 3, 3)
	checkGrads(t, "reshape-flatten", func() *Variable {
		y := Flatten(Reshape(x, 2, 36, 1, 1))
		return MeanAll(Mul(y, y))
	}, map[string]*Variable{"x": x})

	a := randVar(71, true, 2, 2, 3, 3)
	b := randVar(72, true, 2, 3, 3, 3)
	checkGrads(t, "concat", func() *Variable {
		y := ConcatChannels(a, b)
		return MeanAll(Mul(y, y))
	}, map[string]*Variable{"a": a, "b": b})

	x2 := randVar(73, true, 2, 5, 3, 3)
	checkGrads(t, "split", func() *Variable {
		p, q := SplitChannels(x2, 2)
		return Add(SumAll(Mul(p, p)), SumAll(Mul(q, q)))
	}, map[string]*Variable{"x": x2})

	x3 := randVar(74, true, 2, 6, 3, 3)
	checkGrads(t, "shuffle", func() *Variable {
		y := ChannelShuffle(x3, 2)
		return MeanAll(Mul(y, y))
	}, map[string]*Variable{"x": x3})

	x4 := randVar(75, true, 2, 3, 3, 3)
	checkGrads(t, "upsample", func() *Variable {
		y := Upsample2x(x4)
		return MeanAll(Mul(y, y))
	}, map[string]*Variable{"x": x4})
}

func TestGradBatchNorm2d(t *testing.T) {
	x := randVar(80, true, 3, 4, 3, 3)
	gamma := randVar(81, true, 4)
	beta := randVar(82, true, 4)
	for i := range gamma.Value().Data() {
		gamma.Value().Data()[i] = 1 + 0.1*gamma.Value().Data()[i]
	}
	// Fresh running buffers each call so the forward is a pure function.
	build := func() *Variable {
		rm, rv := tensor.New(4), tensor.New(4)
		y := BatchNorm2d(x, gamma, beta, rm, rv, true, 0.1, 1e-5)
		return MeanAll(Mul(y, y))
	}
	checkGrads(t, "bn-train", build, map[string]*Variable{"x": x, "gamma": gamma, "beta": beta})

	// Eval mode: running stats fixed.
	rm, rv := tensor.New(4), tensor.New(4)
	tensor.FillNormal(rm, 0, 0.5, tensor.NewRand(83))
	rv.Fill(1.3)
	buildEval := func() *Variable {
		y := BatchNorm2d(x, gamma, beta, rm.Clone(), rv.Clone(), false, 0.1, 1e-5)
		return MeanAll(Mul(y, y))
	}
	x.grad, gamma.grad, beta.grad = nil, nil, nil
	checkGrads(t, "bn-eval", buildEval, map[string]*Variable{"x": x, "gamma": gamma, "beta": beta})
}

func TestGradBatchNorm1d(t *testing.T) {
	x := randVar(85, true, 5, 3)
	gamma := NewVar(tensor.Full(1.2, 3), true)
	beta := NewVar(tensor.Full(-0.1, 3), true)
	build := func() *Variable {
		rm, rv := tensor.New(3), tensor.New(3)
		y := BatchNorm1d(x, gamma, beta, rm, rv, true, 0.1, 1e-5)
		return MeanAll(Mul(y, y))
	}
	checkGrads(t, "bn1d", build, map[string]*Variable{"x": x, "gamma": gamma, "beta": beta})
}

func TestGradLosses(t *testing.T) {
	logits := randVar(90, true, 4, 5)
	labels := []int{0, 3, 2, 4}
	checkGrads(t, "ce", func() *Variable { return CrossEntropy(logits, labels) },
		map[string]*Variable{"logits": logits})
}

func TestGradComposite(t *testing.T) {
	// A miniature CNN: conv → bn → relu → pool → flatten → linear → CE.
	// This exercises the full chain the real models use.
	x := randVar(100, true, 2, 1, 8, 8)
	w1 := randVar(101, true, 3, 1, 3, 3)
	gamma := NewVar(tensor.Full(1, 3), true)
	beta := NewVar(tensor.New(3), true)
	w2 := randVar(102, true, 4, 3*4*4)
	b2 := randVar(103, true, 4)
	labels := []int{1, 3}
	build := func() *Variable {
		rm, rv := tensor.New(3), tensor.New(3)
		h := Conv2d(x, w1, nil, 1, 1)
		h = BatchNorm2d(h, gamma, beta, rm, rv, true, 0.1, 1e-5)
		h = ReLU(h)
		h = MaxPool2d(h, 2, 2)
		h = Flatten(h)
		return CrossEntropy(Linear(h, w2, b2), labels)
	}
	checkGrads(t, "composite", build, map[string]*Variable{
		"x": x, "w1": w1, "gamma": gamma, "w2": w2, "b2": b2,
	})
}
