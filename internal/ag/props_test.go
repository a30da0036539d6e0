package ag

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// TestSoftmaxLogSoftmaxConsistency: exp(LogSoftmax(x)) == Softmax(x) for
// random inputs across magnitudes (property test).
func TestSoftmaxLogSoftmaxConsistency(t *testing.T) {
	f := func(seed uint64, scale8 uint8) bool {
		scale := 1 + float64(scale8%50)
		rng := tensor.NewRand(seed | 1)
		x := tensor.New(4, 7)
		tensor.FillNormal(x, 0, scale, rng)
		p := Softmax(Const(x)).Value()
		lp := LogSoftmax(Const(x)).Value()
		for i, v := range lp.Data() {
			if math.Abs(math.Exp(v)-p.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSoftmaxShiftInvariance: softmax(x + c·1) == softmax(x).
func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed uint64, shift8 int8) bool {
		rng := tensor.NewRand(seed | 1)
		x := tensor.New(3, 5)
		tensor.FillNormal(x, 0, 2, rng)
		shifted := x.Clone()
		c := float64(shift8)
		for i := range shifted.Data() {
			shifted.Data()[i] += c
		}
		a := Softmax(Const(x)).Value()
		b := Softmax(Const(shifted)).Value()
		return tensor.MaxAbsDiff(a, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBackwardLinearity: the gradient of a·L1 + b·L2 equals a·∇L1 + b·∇L2.
func TestBackwardLinearity(t *testing.T) {
	rng := tensor.NewRand(5)
	base := tensor.New(3, 3)
	tensor.FillNormal(base, 0, 1, rng)

	gradOf := func(build func(x *Variable) *Variable) *tensor.Tensor {
		x := Param(base.Clone())
		Backward(build(x))
		return x.Grad()
	}
	l1 := func(x *Variable) *Variable { return SumAll(Mul(x, x)) }
	l2 := func(x *Variable) *Variable { return MeanAll(Tanh(x)) }
	combined := gradOf(func(x *Variable) *Variable {
		return Add(Scale(2, l1(x)), Scale(-3, l2(x)))
	})
	g1 := gradOf(l1)
	g2 := gradOf(l2)
	want := g1.Clone()
	tensor.ScaleInPlace(want, 2)
	tensor.AxpyInto(want, -3, g2)
	if d := tensor.MaxAbsDiff(combined, want); d > 1e-12 {
		t.Fatalf("backward not linear: max|Δ|=%g", d)
	}
}

// TestCrossEntropyGibbs: CE(logits, y) >= entropy of the softmax,
// with equality iff the prediction equals the one-hot target; and CE of a
// uniform predictor equals log(D).
func TestCrossEntropyGibbs(t *testing.T) {
	// Uniform logits → CE = ln(D) regardless of labels.
	d := 6
	logits := Const(tensor.New(3, d))
	ce := CrossEntropy(logits, []int{0, 3, 5}).Value().Data()[0]
	if math.Abs(ce-math.Log(float64(d))) > 1e-12 {
		t.Fatalf("uniform CE = %v, want ln(%d)=%v", ce, d, math.Log(float64(d)))
	}
	// Confident correct prediction → CE near 0.
	conf := tensor.New(1, d)
	conf.Set(50, 0, 2)
	ce2 := CrossEntropy(Const(conf), []int{2}).Value().Data()[0]
	if ce2 > 1e-9 {
		t.Fatalf("confident CE = %v, want ~0", ce2)
	}
}

// TestMaxPoolDominatesAvgPool: for any input, max pooling ≥ the mean of
// each pooling window, elementwise.
func TestMaxPoolDominatesAvgPool(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRand(seed | 1)
		x := tensor.New(2, 3, 6, 6)
		tensor.FillNormal(x, 0, 1, rng)
		mx := MaxPool2d(Const(x), 2, 2).Value()
		xd := x.Data()
		for i, m := range mx.Data() {
			// Output i is plane i/9, window (i%9/3, i%3) of the 3×3 grid.
			base, oy, ox := i/9*36, i%9/3, i%3
			avg := 0.0
			for ky := 0; ky < 2; ky++ {
				for kx := 0; kx < 2; kx++ {
					avg += xd[base+(2*oy+ky)*6+2*ox+kx] / 4
				}
			}
			if m < avg-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChannelShuffleIsPermutation: shuffling twice with compatible groups
// preserves multiset of values, and the op never mixes across samples.
func TestChannelShuffleIsPermutation(t *testing.T) {
	rng := tensor.NewRand(9)
	x := tensor.New(2, 6, 2, 2)
	tensor.FillNormal(x, 0, 1, rng)
	y := ChannelShuffle(Const(x), 3).Value()
	// Same multiset per sample.
	for s := 0; s < 2; s++ {
		a := append([]float64(nil), x.Data()[s*24:(s+1)*24]...)
		b := append([]float64(nil), y.Data()[s*24:(s+1)*24]...)
		sortFloats(a)
		sortFloats(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("channel shuffle changed values")
			}
		}
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// TestBatchNormNormalizes: in training mode with γ=1 β=0, per-channel
// batch statistics of the output are ~N(0,1).
func TestBatchNormNormalizes(t *testing.T) {
	rng := tensor.NewRand(11)
	const n, c, h, w = 8, 3, 4, 4
	x := tensor.New(n, c, h, w)
	tensor.FillNormal(x, 3, 2.5, rng) // deliberately offset and scaled
	gamma := Param(tensor.Full(1, c))
	beta := Param(tensor.New(c))
	rm, rv := tensor.New(c), tensor.Full(1, c)
	y := BatchNorm2d(Const(x), gamma, beta, rm, rv, true, 0.1, 1e-5).Value()
	sp := h * w
	for ch := 0; ch < c; ch++ {
		sum, sumSq := 0.0, 0.0
		for s := 0; s < n; s++ {
			for i := 0; i < sp; i++ {
				v := y.Data()[(s*c+ch)*sp+i]
				sum += v
				sumSq += v * v
			}
		}
		m := float64(n * sp)
		mean := sum / m
		variance := sumSq/m - mean*mean
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d: mean=%g var=%g after BN", ch, mean, variance)
		}
	}
}

// TestUpsampleDownsampleAdjoint: GlobalAvgPool(Upsample2x(x)) equals
// GlobalAvgPool(x) — replication preserves means.
func TestUpsampleMeanPreservation(t *testing.T) {
	rng := tensor.NewRand(13)
	x := tensor.New(2, 3, 4, 4)
	tensor.FillNormal(x, 0, 1, rng)
	a := GlobalAvgPool(Const(x)).Value()
	b := GlobalAvgPool(Upsample2x(Const(x))).Value()
	if d := tensor.MaxAbsDiff(a, b); d > 1e-12 {
		t.Fatalf("upsample changed channel means by %g", d)
	}
}
