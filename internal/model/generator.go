package model

import (
	"fmt"
	"math/rand/v2"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Generator is the server-side generative model G(z;θ) that synthesises
// distillation inputs from Gaussian noise (paper §III-B1). It follows the
// DCGAN-style decoder used in data-free adversarial distillation: a linear
// stem projecting z to a low-resolution feature map, two nearest-neighbour
// upsampling stages with convolution + batch-norm + LeakyReLU, and a tanh
// output that keeps images in [-1, 1].
type Generator struct {
	ZDim int
	Out  Shape

	stem    *nn.Linear
	stemBN  *nn.BatchNorm1d
	decoder *nn.Sequential
	h4, w4  int
	c0      int
}

var _ nn.Module = (*Generator)(nil)

// NewGenerator builds a generator producing images of shape out from
// zDim-dimensional noise. out's spatial size must be divisible by 4.
func NewGenerator(zDim int, out Shape, rng *rand.Rand) *Generator {
	if out.H%4 != 0 || out.W%4 != 0 {
		panic(fmt.Sprintf("model: generator output %v must have spatial size divisible by 4", out))
	}
	const c0 = 64
	h4, w4 := out.H/4, out.W/4
	g := &Generator{
		ZDim:   zDim,
		Out:    out,
		stem:   nn.NewLinear(zDim, c0*h4*w4, true, rng),
		stemBN: nn.NewBatchNorm1d(c0 * h4 * w4),
		h4:     h4,
		w4:     w4,
		c0:     c0,
	}
	g.decoder = nn.NewSequential(
		nn.Upsample2x{},
		nn.NewConv2d(c0, 32, 3, 1, 1, false, rng),
		nn.NewBatchNorm2d(32),
		nn.LeakyReLU{Alpha: 0.2},
		nn.Upsample2x{},
		nn.NewConv2d(32, 16, 3, 1, 1, false, rng),
		nn.NewBatchNorm2d(16),
		nn.LeakyReLU{Alpha: 0.2},
		nn.NewConv2d(16, out.C, 3, 1, 1, true, rng),
		nn.Tanh{},
	)
	return g
}

// Reinit implements nn.Reinitialiser, in construction order.
func (g *Generator) Reinit(rng *rand.Rand) {
	g.stem.Reinit(rng)
	g.stemBN.Reinit(rng)
	g.decoder.Reinit(rng)
}

// Forward maps noise z of shape (N, ZDim) to images (N, C, H, W).
func (g *Generator) Forward(z *ag.Variable) *ag.Variable {
	if z.Shape()[1] != g.ZDim {
		panic(fmt.Sprintf("model: generator got z dim %d, want %d", z.Shape()[1], g.ZDim))
	}
	n := z.Shape()[0]
	h := g.stem.Forward(z)
	h = g.stemBN.Forward(h)
	h = ag.LeakyReLU(h, 0.2)
	h = ag.Reshape(h, n, g.c0, g.h4, g.w4)
	return g.decoder.Forward(h)
}

// SampleZ is SampleZIn on an arena of its own.
//
// Deprecated: kept only for the benchmark's generator probe; use SampleZIn.
func (g *Generator) SampleZ(n int, rng *rand.Rand) *tensor.Tensor {
	return g.SampleZIn(tensor.NewArena(), n, rng)
}

// SampleZIn draws an (n × ZDim) batch of standard Gaussian noise into a
// tensor from the given step-scoped arena.
func (g *Generator) SampleZIn(a *tensor.Arena, n int, rng *rand.Rand) *tensor.Tensor {
	z := a.NewRaw(n, g.ZDim)
	tensor.FillNormal(z, 0, 1, rng)
	return z
}

// Params implements nn.Module.
func (g *Generator) Params() []*ag.Variable {
	ps := g.stem.Params()
	ps = append(ps, g.stemBN.Params()...)
	return append(ps, g.decoder.Params()...)
}

// SetTraining implements nn.Module.
func (g *Generator) SetTraining(t bool) {
	g.stem.SetTraining(t)
	g.stemBN.SetTraining(t)
	g.decoder.SetTraining(t)
}

// VisitState implements nn.Module.
func (g *Generator) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	g.stem.VisitState(prefix+".stem", fn)
	g.stemBN.VisitState(prefix+".stem_bn", fn)
	g.decoder.VisitState(prefix+".dec", fn)
}
