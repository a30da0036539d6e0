package model

import (
	"math/rand/v2"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// shuffleUnit is the ShuffleNetV2 building block. With stride 1 the input
// is channel-split in half: one half passes through untouched, the other
// through 1×1 → depthwise 3×3 → 1×1; the halves are concatenated and
// channel-shuffled. With stride 2 both branches process (and downsample)
// the full input, doubling the channel count.
type shuffleUnit struct {
	stride  int
	branch1 *nn.Sequential // only for stride 2
	branch2 *nn.Sequential
	params  []*ag.Variable
}

var _ nn.Module = (*shuffleUnit)(nil)

// newShuffleUnit builds a unit with `in` input channels producing `out`
// output channels. For stride 1, out must equal in (and be even); for
// stride 2, each branch produces out/2 channels.
func newShuffleUnit(in, out, stride int, rng *rand.Rand) *shuffleUnit {
	u := &shuffleUnit{stride: stride}
	if stride == 1 {
		if in != out || in%2 != 0 {
			panic("model: stride-1 shuffle unit needs even in == out")
		}
		half := in / 2
		u.branch2 = nn.NewSequential(
			nn.NewConv2d(half, half, 1, 1, 0, false, rng),
			nn.NewBatchNorm2d(half),
			nn.ReLU{},
			nn.NewDepthwiseConv2d(half, 3, 1, 1, false, rng),
			nn.NewBatchNorm2d(half),
			nn.NewConv2d(half, half, 1, 1, 0, false, rng),
			nn.NewBatchNorm2d(half),
			nn.ReLU{},
		)
		u.params = u.branch2.Params()
		return u
	}
	if out%2 != 0 {
		panic("model: stride-2 shuffle unit needs even out")
	}
	half := out / 2
	u.branch1 = nn.NewSequential(
		nn.NewDepthwiseConv2d(in, 3, 2, 1, false, rng),
		nn.NewBatchNorm2d(in),
		nn.NewConv2d(in, half, 1, 1, 0, false, rng),
		nn.NewBatchNorm2d(half),
		nn.ReLU{},
	)
	u.branch2 = nn.NewSequential(
		nn.NewConv2d(in, half, 1, 1, 0, false, rng),
		nn.NewBatchNorm2d(half),
		nn.ReLU{},
		nn.NewDepthwiseConv2d(half, 3, 2, 1, false, rng),
		nn.NewBatchNorm2d(half),
		nn.NewConv2d(half, half, 1, 1, 0, false, rng),
		nn.NewBatchNorm2d(half),
		nn.ReLU{},
	)
	u.params = nn.ConcatParams(u.branch1, u.branch2)
	return u
}

// Reinit implements nn.Reinitialiser, in construction order.
func (u *shuffleUnit) Reinit(rng *rand.Rand) {
	if u.branch1 != nil {
		u.branch1.Reinit(rng)
	}
	u.branch2.Reinit(rng)
}

// Forward implements nn.Module.
func (u *shuffleUnit) Forward(x *ag.Variable) *ag.Variable {
	var a, b *ag.Variable
	if u.stride == 1 {
		c := x.Shape()[1]
		a, b = ag.SplitChannels(x, c/2)
		b = u.branch2.Forward(b)
	} else {
		a = u.branch1.Forward(x)
		b = u.branch2.Forward(x)
	}
	return ag.ChannelShuffle(ag.ConcatChannels(a, b), 2)
}

// Params implements nn.Module.
func (u *shuffleUnit) Params() []*ag.Variable { return u.params }

// SetTraining implements nn.Module.
func (u *shuffleUnit) SetTraining(t bool) {
	if u.branch1 != nil {
		u.branch1.SetTraining(t)
	}
	u.branch2.SetTraining(t)
}

// VisitState implements nn.Module.
func (u *shuffleUnit) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	if u.branch1 != nil {
		u.branch1.VisitState(prefix+".b1", fn)
	}
	u.branch2.VisitState(prefix+".b2", fn)
}

// buildShuffleNet assembles a scaled-down ShuffleNetV2: stem → two stages
// of (downsample unit + basic unit) → 1×1 head → GAP → classifier. mult is
// the paper's "net size" (0.5 / 1.0).
func buildShuffleNet(in Shape, classes int, rng *rand.Rand, mult float64) nn.Module {
	c0 := scaleCh(12, mult)
	c1 := scaleCh(24, mult)
	c2 := scaleCh(48, mult)
	head := scaleCh(64, mult)
	return nn.NewSequential(
		nn.NewConv2d(in.C, c0, 3, 1, 1, false, rng),
		nn.NewBatchNorm2d(c0),
		nn.ReLU{},
		newShuffleUnit(c0, c1, 2, rng),
		newShuffleUnit(c1, c1, 1, rng),
		newShuffleUnit(c1, c2, 2, rng),
		newShuffleUnit(c2, c2, 1, rng),
		nn.NewConv2d(c2, head, 1, 1, 0, false, rng),
		nn.NewBatchNorm2d(head),
		nn.ReLU{},
		nn.GlobalAvgPool{},
		nn.NewLinear(head, classes, true, rng),
	)
}
