package model

import (
	"math/rand/v2"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// invertedResidual is the MobileNetV2 building block: 1×1 expansion →
// depthwise 3×3 → 1×1 linear projection, with a residual connection when
// the block preserves shape.
type invertedResidual struct {
	expand  *nn.Sequential // 1x1 conv + BN + ReLU6 (nil when expansion == 1)
	dw      *nn.Sequential // depthwise 3x3 + BN + ReLU6
	project *nn.Sequential // 1x1 conv + BN (linear bottleneck)
	useRes  bool
}

var _ nn.Module = (*invertedResidual)(nil)

func newInvertedResidual(in, out, stride, expansion int, rng *rand.Rand) *invertedResidual {
	hidden := in * expansion
	b := &invertedResidual{useRes: stride == 1 && in == out}
	if expansion != 1 {
		b.expand = nn.NewSequential(
			nn.NewConv2d(in, hidden, 1, 1, 0, false, rng),
			nn.NewBatchNorm2d(hidden),
			nn.ReLU6{},
		)
	}
	b.dw = nn.NewSequential(
		nn.NewDepthwiseConv2d(hidden, 3, stride, 1, false, rng),
		nn.NewBatchNorm2d(hidden),
		nn.ReLU6{},
	)
	b.project = nn.NewSequential(
		nn.NewConv2d(hidden, out, 1, 1, 0, false, rng),
		nn.NewBatchNorm2d(out),
	)
	return b
}

// Reinit implements nn.Reinitialiser, in construction order.
func (b *invertedResidual) Reinit(rng *rand.Rand) {
	if b.expand != nil {
		b.expand.Reinit(rng)
	}
	b.dw.Reinit(rng)
	b.project.Reinit(rng)
}

// Forward implements nn.Module.
func (b *invertedResidual) Forward(x *ag.Variable) *ag.Variable {
	h := x
	if b.expand != nil {
		h = b.expand.Forward(h)
	}
	h = b.dw.Forward(h)
	h = b.project.Forward(h)
	if b.useRes {
		h = ag.Add(h, x)
	}
	return h
}

// Params implements nn.Module.
func (b *invertedResidual) Params() []*ag.Variable {
	var ps []*ag.Variable
	if b.expand != nil {
		ps = append(ps, b.expand.Params()...)
	}
	ps = append(ps, b.dw.Params()...)
	return append(ps, b.project.Params()...)
}

// SetTraining implements nn.Module.
func (b *invertedResidual) SetTraining(t bool) {
	if b.expand != nil {
		b.expand.SetTraining(t)
	}
	b.dw.SetTraining(t)
	b.project.SetTraining(t)
}

// VisitState implements nn.Module.
func (b *invertedResidual) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	if b.expand != nil {
		b.expand.VisitState(prefix+".expand", fn)
	}
	b.dw.VisitState(prefix+".dw", fn)
	b.project.VisitState(prefix+".project", fn)
}

// scaleCh applies a width multiplier and rounds to an even channel count
// of at least 4 (even so ShuffleNet splits stay valid when reused).
func scaleCh(base int, mult float64) int {
	c := int(float64(base)*mult + 0.5)
	if c < 4 {
		c = 4
	}
	if c%2 == 1 {
		c++
	}
	return c
}

// buildMobileNet assembles a scaled-down MobileNetV2: stem → four inverted
// residual blocks (two spatial reductions) → 1×1 head → GAP → classifier.
// mult is the paper's width multiplier (0.6 / 0.8).
func buildMobileNet(in Shape, classes int, rng *rand.Rand, mult float64) nn.Module {
	c0 := scaleCh(16, mult)
	c1 := scaleCh(24, mult)
	c2 := scaleCh(40, mult)
	head := scaleCh(64, mult)
	return nn.NewSequential(
		// Stem.
		nn.NewConv2d(in.C, c0, 3, 1, 1, false, rng),
		nn.NewBatchNorm2d(c0),
		nn.ReLU6{},
		// Stage 1: downsample then refine.
		newInvertedResidual(c0, c1, 2, 4, rng),
		newInvertedResidual(c1, c1, 1, 4, rng),
		// Stage 2: downsample then refine.
		newInvertedResidual(c1, c2, 2, 4, rng),
		newInvertedResidual(c2, c2, 1, 4, rng),
		// Head.
		nn.NewConv2d(c2, head, 1, 1, 0, false, rng),
		nn.NewBatchNorm2d(head),
		nn.ReLU6{},
		nn.GlobalAvgPool{},
		nn.NewLinear(head, classes, true, rng),
	)
}
