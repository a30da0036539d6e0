package nn

import (
	"math/rand/v2"
	"slices"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Reinitialiser is implemented by modules that can re-draw their seeded
// initial state in place: Reinit(rng) leaves every state tensor holding
// exactly the values the module's constructor would have produced from
// rng — the same draws in the same order, biases zero, batch-norm γ/β and
// running statistics at their constants — without allocating. It is what
// lets one live module stand in for any number of seeded builds of its
// architecture. Every layer in this package implements it, and the
// parameterised layers' constructors initialise through it, so the two
// cannot drift apart.
type Reinitialiser interface {
	Reinit(rng *rand.Rand)
}

// paramList is a parameterised layer's Params, made once at construction
// from its weight and optional bias, with cap == len so that a caller's
// append copies it.
func paramList(ps ...*ag.Variable) []*ag.Variable {
	if ps[len(ps)-1] == nil {
		ps = ps[:len(ps)-1]
	}
	return slices.Clip(ps)
}

// zeroBias clears an optional bias parameter.
func zeroBias(b *ag.Variable) {
	if b != nil {
		b.Value().Zero()
	}
}

// Linear is a fully-connected layer computing x·Wᵀ + b.
type Linear struct {
	W      *ag.Variable // (out × in)
	B      *ag.Variable // (out), nil when bias is disabled
	params []*ag.Variable
}

// NewLinear constructs a Glorot-initialised fully-connected layer. A nil
// rng draws nothing and leaves every parameter zero: the layout of a
// module whose state is installed before use.
func NewLinear(in, out int, bias bool, rng *rand.Rand) *Linear {
	l := &Linear{W: ag.Param(tensor.New(out, in))}
	if bias {
		l.B = ag.Param(tensor.New(out))
	}
	l.params = paramList(l.W, l.B)
	if rng != nil {
		l.Reinit(rng)
	}
	return l
}

// Reinit implements Reinitialiser: Glorot weights over (in, out), zero
// bias.
func (l *Linear) Reinit(rng *rand.Rand) {
	w := l.W.Value()
	tensor.FillGlorot(w, w.Dim(1), w.Dim(0), rng)
	zeroBias(l.B)
}

// Forward implements Module.
func (l *Linear) Forward(x *ag.Variable) *ag.Variable { return ag.Linear(x, l.W, l.B) }

// Params implements Module.
func (l *Linear) Params() []*ag.Variable { return l.params }

// SetTraining implements Module (stateless with respect to mode).
func (l *Linear) SetTraining(bool) {}

// VisitState implements Module.
func (l *Linear) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	fn(join(prefix, "w"), l.W.Value())
	if l.B != nil {
		fn(join(prefix, "b"), l.B.Value())
	}
}

// Conv2d is a 2-D convolution layer.
type Conv2d struct {
	W      *ag.Variable // (out, in, k, k)
	B      *ag.Variable // (out), nil when bias is disabled
	Stride int
	Pad    int
	params []*ag.Variable
}

// NewConv2d constructs a Glorot-initialised convolution layer with square
// kernels; a nil rng leaves every parameter zero, as in NewLinear.
func NewConv2d(inC, outC, k, stride, pad int, bias bool, rng *rand.Rand) *Conv2d {
	c := &Conv2d{W: ag.Param(tensor.New(outC, inC, k, k)), Stride: stride, Pad: pad}
	if bias {
		c.B = ag.Param(tensor.New(outC))
	}
	c.params = paramList(c.W, c.B)
	if rng != nil {
		c.Reinit(rng)
	}
	return c
}

// Reinit implements Reinitialiser: Glorot weights over (inC·k², outC·k²),
// zero bias.
func (c *Conv2d) Reinit(rng *rand.Rand) {
	w := c.W.Value()
	kk := w.Dim(2) * w.Dim(3)
	tensor.FillGlorot(w, w.Dim(1)*kk, w.Dim(0)*kk, rng)
	zeroBias(c.B)
}

// Forward implements Module.
func (c *Conv2d) Forward(x *ag.Variable) *ag.Variable {
	return ag.Conv2d(x, c.W, c.B, c.Stride, c.Pad)
}

// Params implements Module.
func (c *Conv2d) Params() []*ag.Variable { return c.params }

// SetTraining implements Module.
func (c *Conv2d) SetTraining(bool) {}

// VisitState implements Module.
func (c *Conv2d) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	fn(join(prefix, "w"), c.W.Value())
	if c.B != nil {
		fn(join(prefix, "b"), c.B.Value())
	}
}

// DepthwiseConv2d convolves each channel with its own kernel (groups ==
// channels), the core of MobileNet/ShuffleNet blocks.
type DepthwiseConv2d struct {
	W      *ag.Variable // (C, k, k)
	B      *ag.Variable // (C), nil when bias is disabled
	Stride int
	Pad    int
	params []*ag.Variable
}

// NewDepthwiseConv2d constructs a Glorot-initialised depthwise
// convolution; a nil rng leaves every parameter zero, as in NewLinear.
func NewDepthwiseConv2d(channels, k, stride, pad int, bias bool, rng *rand.Rand) *DepthwiseConv2d {
	d := &DepthwiseConv2d{W: ag.Param(tensor.New(channels, k, k)), Stride: stride, Pad: pad}
	if bias {
		d.B = ag.Param(tensor.New(channels))
	}
	d.params = paramList(d.W, d.B)
	if rng != nil {
		d.Reinit(rng)
	}
	return d
}

// Reinit implements Reinitialiser: Glorot weights over (k², k²), zero
// bias.
func (d *DepthwiseConv2d) Reinit(rng *rand.Rand) {
	w := d.W.Value()
	kk := w.Dim(1) * w.Dim(2)
	tensor.FillGlorot(w, kk, kk, rng)
	zeroBias(d.B)
}

// Forward implements Module.
func (d *DepthwiseConv2d) Forward(x *ag.Variable) *ag.Variable {
	return ag.DepthwiseConv2d(x, d.W, d.B, d.Stride, d.Pad)
}

// Params implements Module.
func (d *DepthwiseConv2d) Params() []*ag.Variable { return d.params }

// SetTraining implements Module.
func (d *DepthwiseConv2d) SetTraining(bool) {}

// VisitState implements Module.
func (d *DepthwiseConv2d) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	fn(join(prefix, "w"), d.W.Value())
	if d.B != nil {
		fn(join(prefix, "b"), d.B.Value())
	}
}

// BatchNorm2d normalises (N,C,H,W) activations per channel with learnable
// scale and shift and tracked running statistics.
type BatchNorm2d struct {
	Gamma    *ag.Variable
	Beta     *ag.Variable
	RunMean  *tensor.Tensor
	RunVar   *tensor.Tensor
	Momentum float64
	Eps      float64
	training bool
	params   []*ag.Variable
}

// NewBatchNorm2d constructs a BatchNorm2d over c channels with γ=1, β=0,
// running mean 0 and running variance 1.
func NewBatchNorm2d(c int) *BatchNorm2d {
	b := &BatchNorm2d{
		Gamma:    ag.Param(tensor.New(c)),
		Beta:     ag.Param(tensor.New(c)),
		RunMean:  tensor.New(c),
		RunVar:   tensor.New(c),
		Momentum: 0.1,
		Eps:      1e-5,
		training: true,
	}
	b.params = paramList(b.Gamma, b.Beta)
	b.Reinit(nil)
	return b
}

// Reinit implements Reinitialiser: γ=1, β=0, running mean 0 and running
// variance 1 (no draws).
func (b *BatchNorm2d) Reinit(*rand.Rand) {
	b.Gamma.Value().Fill(1)
	b.Beta.Value().Zero()
	b.RunMean.Zero()
	b.RunVar.Fill(1)
}

// Forward implements Module.
func (b *BatchNorm2d) Forward(x *ag.Variable) *ag.Variable {
	return ag.BatchNorm2d(x, b.Gamma, b.Beta, b.RunMean, b.RunVar, b.training, b.Momentum, b.Eps)
}

// Params implements Module.
func (b *BatchNorm2d) Params() []*ag.Variable { return b.params }

// SetTraining implements Module.
func (b *BatchNorm2d) SetTraining(t bool) { b.training = t }

// VisitState implements Module.
func (b *BatchNorm2d) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	fn(join(prefix, "gamma"), b.Gamma.Value())
	fn(join(prefix, "beta"), b.Beta.Value())
	fn(join(prefix, "run_mean"), b.RunMean)
	fn(join(prefix, "run_var"), b.RunVar)
}

// BatchNorm1d normalises (N,D) activations per feature.
type BatchNorm1d struct {
	bn BatchNorm2d
}

// NewBatchNorm1d constructs a BatchNorm1d over d features.
func NewBatchNorm1d(d int) *BatchNorm1d {
	return &BatchNorm1d{bn: *NewBatchNorm2d(d)}
}

// Reinit implements Reinitialiser.
func (b *BatchNorm1d) Reinit(rng *rand.Rand) { b.bn.Reinit(rng) }

// Forward implements Module.
func (b *BatchNorm1d) Forward(x *ag.Variable) *ag.Variable {
	return ag.BatchNorm1d(x, b.bn.Gamma, b.bn.Beta, b.bn.RunMean, b.bn.RunVar, b.bn.training, b.bn.Momentum, b.bn.Eps)
}

// Params implements Module.
func (b *BatchNorm1d) Params() []*ag.Variable { return b.bn.Params() }

// SetTraining implements Module.
func (b *BatchNorm1d) SetTraining(t bool) { b.bn.SetTraining(t) }

// VisitState implements Module.
func (b *BatchNorm1d) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	b.bn.VisitState(prefix, fn)
}

// stateless embeds no-op Module plumbing for layers without state.
type stateless struct{}

func (stateless) Params() []*ag.Variable                          { return nil }
func (stateless) SetTraining(bool)                                {}
func (stateless) VisitState(string, func(string, *tensor.Tensor)) {}
func (stateless) Reinit(*rand.Rand)                               {}

// ReLU applies max(x,0).
type ReLU struct{ stateless }

// Forward implements Module.
func (ReLU) Forward(x *ag.Variable) *ag.Variable { return ag.ReLU(x) }

// ReLU6 applies min(max(x,0),6).
type ReLU6 struct{ stateless }

// Forward implements Module.
func (ReLU6) Forward(x *ag.Variable) *ag.Variable { return ag.ReLU6(x) }

// LeakyReLU applies x>0 ? x : Alpha*x.
type LeakyReLU struct {
	stateless
	Alpha float64
}

// Forward implements Module.
func (l LeakyReLU) Forward(x *ag.Variable) *ag.Variable { return ag.LeakyReLU(x, l.Alpha) }

// Tanh applies the hyperbolic tangent.
type Tanh struct{ stateless }

// Forward implements Module.
func (Tanh) Forward(x *ag.Variable) *ag.Variable { return ag.Tanh(x) }

// MaxPool2d applies k×k max pooling.
type MaxPool2d struct {
	stateless
	K, Stride int
}

// Forward implements Module.
func (p MaxPool2d) Forward(x *ag.Variable) *ag.Variable { return ag.MaxPool2d(x, p.K, p.Stride) }

// GlobalAvgPool reduces (N,C,H,W) to (N,C).
type GlobalAvgPool struct{ stateless }

// Forward implements Module.
func (GlobalAvgPool) Forward(x *ag.Variable) *ag.Variable { return ag.GlobalAvgPool(x) }

// Flatten reshapes (N,...) to (N,rest).
type Flatten struct{ stateless }

// Forward implements Module.
func (Flatten) Forward(x *ag.Variable) *ag.Variable { return ag.Flatten(x) }

// Upsample2x doubles spatial dimensions by nearest-neighbour replication.
type Upsample2x struct{ stateless }

// Forward implements Module.
func (Upsample2x) Forward(x *ag.Variable) *ag.Variable { return ag.Upsample2x(x) }
