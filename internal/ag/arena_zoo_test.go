package ag_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// TestArenaGradsBitIdenticalToHeap pins a warm arena to the reference of
// the same step on a fresh arena, bit for bit. The warm arena serves every
// step, and before each one it serves a step of a different model and is
// reset, so its recycled storage held other values at other offsets. The
// reference draws each step from an arena of its own, whose storage comes
// new from the heap. Both recycle slab nodes, fuse first accumulations and
// release lowerings, backward scratch and interior gradients at their last
// read, NaN-filled on release, this being a test. A read after release
// would go wrong the same way on both sides, so every loss must also be
// finite and every leaf or input gradient finite and not all zero (see
// flowing). Loss and leaf gradients must be identical step after step, in
// the three ways a conv meets its lowering: trainable (the input kept,
// lowered again by the backward), frozen weights under an input gradient
// (no lowering outlives the forward), and a ForwardOnly warm arena (the
// same loss, no tape at all). On both sides every interior gradient is
// gone when Backward returns, except on the nodes the retained row marks
// with RetainGrad, which read the same bits on both.
//
// The zoo row runs every architecture in model.Names() the same way, with
// its chains discarding every activation no recorded backward declared it
// reads: a training step, and the generator step's shape — a trainable
// generator feeding a frozen evaluation-mode teacher mirrored onto a second
// arena, which differentiates the teacher's input. A backward reading a
// value its op did not declare reads an emptied or NaN value here, and the
// gradients upstream of it stop flowing.
func TestArenaGradsBitIdenticalToHeap(t *testing.T) {
	xt := tensor.New(4, 1, 8, 8)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(11))

	for _, tc := range []struct {
		name                          string
		frozen, forwardOnly, retained bool
	}{
		{name: "trainable"},
		{name: "frozen weight", frozen: true},
		{name: "forward-only", forwardOnly: true},
		{name: "retained", retained: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refP, warmP := ag.NetParams(5), ag.NetParams(5)
			if tc.frozen {
				for _, p := range []map[string]*ag.Variable{refP, warmP} {
					p["w1"].SetRequiresGrad(false)
					p["w2"].SetRequiresGrad(false)
				}
			}
			warm := ag.NewArena()
			dirty := dirtier("lenet")
			for step := 0; step < 3; step++ {
				dirty(warm)
				warm.ForwardOnly(tc.forwardOnly)
				xr, xw := ag.NewVarIn(ag.NewArena(), xt, tc.frozen), ag.NewVarIn(warm, xt, tc.frozen)
				lossR := ag.BuildNet(xr, refP)
				lossW := ag.BuildNet(xw, warmP)
				tapeR, tapeW := ag.Interior(lossR), ag.Interior(lossW)
				if !tc.forwardOnly && len(tapeW) != len(tapeR) {
					t.Fatalf("step %d: warm tape has %d nodes, reference tape %d", step, len(tapeW), len(tapeR))
				}
				if tc.retained {
					// Every other node, so a retained gradient sits between
					// released ones.
					for i := 0; i < len(tapeR); i += 2 {
						tapeR[i].RetainGrad()
						tapeW[i].RetainGrad()
					}
				}
				ag.Backward(lossR)
				ag.Backward(lossW)

				for i, n := range tapeR {
					if tc.retained && i%2 == 0 {
						if n.Grad() == nil || tapeW[i].Grad() == nil {
							t.Fatalf("step %d: retained node %d lost its gradient", step, i)
						}
						ag.BitsEq(t, "retained interior grad", tapeW[i].Grad(), n.Grad())
					} else if n.Grad() != nil {
						t.Fatalf("step %d: reference interior node %d kept its gradient past Backward", step, i)
					}
				}
				for i, n := range tapeW {
					if n.Grad() != nil && !(tc.retained && i%2 == 0) {
						t.Fatalf("step %d: warm interior node %d kept its gradient past Backward", step, i)
					}
				}

				finite(t, fmt.Sprintf("step %d reference loss", step), lossR.Value())
				if rb, wb := math.Float64bits(lossR.Value().Data()[0]), math.Float64bits(lossW.Value().Data()[0]); rb != wb {
					t.Fatalf("step %d: loss differs: %x vs %x", step, rb, wb)
				}
				if tc.forwardOnly {
					if lossW.RequiresGrad() {
						t.Fatalf("step %d: a ForwardOnly arena recorded a tape", step)
					}
					for name, wp := range warmP {
						if wp.Grad() != nil {
							t.Fatalf("step %d: %s has a gradient after a ForwardOnly pass", step, name)
						}
					}
				}
				if tc.frozen {
					flowing(t, "input gradient", xr.Grad())
					ag.BitsEq(t, "input gradient", xw.Grad(), xr.Grad())
				}
				for name, rp := range refP {
					wp := warmP[name]
					if rp.Grad() == nil || tc.forwardOnly {
						if wp.Grad() != nil {
							t.Fatalf("step %d: %s: reference grad nil, warm grad set", step, name)
						}
						continue
					}
					flowing(t, name+" grad", rp.Grad())
					ag.BitsEq(t, name+" grad", wp.Grad(), rp.Grad())
				}
				// Running statistics evolved identically.
				ag.BitsEq(t, "running mean", warmP["rm"].Value(), refP["rm"].Value())
				ag.BitsEq(t, "running var", warmP["rv"].Value(), refP["rv"].Value())
				for _, p := range refP {
					p.ZeroGrad()
				}
				for _, p := range warmP {
					p.ZeroGrad()
				}
				warm.ForwardOnly(false)
				warm.Reset()
			}
		})
	}
	t.Run("zoo", func(t *testing.T) {
		names := model.Names()
		for i, arch := range names {
			other := names[(i+1)%len(names)]
			t.Run(arch+"/train", func(t *testing.T) { zooTrainStep(t, arch, other) })
			t.Run(arch+"/generator step", func(t *testing.T) { zooGeneratorStep(t, arch, other) })
		}
	})
}

// finite fails the test if any element of v is NaN or infinite.
func finite(t *testing.T, name string, v *tensor.Tensor) {
	t.Helper()
	for i, x := range v.Data() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("%s: elem %d is %v", name, i, x)
		}
	}
}

// flowing fails the test if gradient g is not finite or is zero in every
// element. A backward that reads a value released before it ran sees an
// empty slice (or NaN): a rectifier then passes nothing back, and every
// gradient upstream of it is zero on both sides of a comparison.
func flowing(t *testing.T, name string, g *tensor.Tensor) {
	t.Helper()
	finite(t, name, g)
	for _, x := range g.Data() {
		if x != 0 {
			return
		}
	}
	t.Fatalf("%s: every element is zero", name)
}

// dirtier returns a function that runs one training step of arch, at a
// batch no zoo step uses, on an arena and resets it: the next step on that
// arena gets storage that held other values, at other offsets.
func dirtier(arch string) func(ar *ag.Arena) {
	m := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(51))
	xt := tensor.New(zooBatch+2, zooIn.C, zooIn.H, zooIn.W)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(52))
	y := make([]int, xt.Dim(0))
	for i := range y {
		y[i] = i % zooClasses
	}
	return func(ar *ag.Arena) {
		ag.Backward(ag.CrossEntropy(m.Forward(ag.ConstIn(ar, xt)), y))
		ar.Reset()
	}
}

// TestArenaLessTapeTakesOneArena: a tape none of whose leaves carries an
// arena (NewVar, Param, Const) runs on the one arena its first op creates,
// which every node an op returns shares, and computes the bits of the same
// tape threaded through an explicit arena — values and leaf gradients.
// Three shapes: a conv forward and backward from Param leaves, a generator
// forward from a Const, and an evaluation-mode global-model forward from a
// Const, each differentiated through the mean square of its output.
func TestArenaLessTapeTakesOneArena(t *testing.T) {
	rng := tensor.NewRand(61)
	cx, cw := tensor.New(3, 4, 6, 6), tensor.New(5, 4, 3, 3)
	tensor.FillNormal(cx, 0, 1, rng)
	tensor.FillNormal(cw, 0, 0.1, rng)
	gen := model.NewGenerator(8, zooIn, tensor.NewRand(62))
	z := gen.SampleZ(zooBatch, rng)
	global := model.MustBuild("global", zooIn, zooClasses, tensor.NewRand(63))
	global.SetTraining(false)
	gx := tensor.New(zooBatch, zooIn.C, zooIn.H, zooIn.W)
	tensor.FillNormal(gx, 0, 1, rng)
	// leaf wraps an input as a Const, on ar unless ar is nil.
	leaf := func(ar *ag.Arena, x *tensor.Tensor) *ag.Variable {
		if ar == nil {
			return ag.Const(x)
		}
		return ag.ConstIn(ar, x)
	}

	for _, tc := range []struct {
		name string
		// build records the tape over its input, arena-less when ar is
		// nil, and returns its output and the leaves it differentiates.
		build func(ar *ag.Arena) (*ag.Variable, []*ag.Variable)
	}{
		{"conv from Params", func(ar *ag.Arena) (*ag.Variable, []*ag.Variable) {
			x, w := ag.Param(cx), ag.Param(cw)
			if ar != nil {
				x = ag.NewVarIn(ar, cx, true)
			}
			return ag.Conv2d(x, w, nil, 1, 1), []*ag.Variable{x, w}
		}},
		{"generator from a Const", func(ar *ag.Arena) (*ag.Variable, []*ag.Variable) {
			return gen.Forward(leaf(ar, z)), gen.Params()
		}},
		{"evaluation-mode global from a Const", func(ar *ag.Arena) (*ag.Variable, []*ag.Variable) {
			return global.Forward(leaf(ar, gx)), global.Params()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, leaves := tc.build(nil)
			loss := ag.MeanAll(ag.Mul(out, out))
			tape := ag.Interior(loss)
			shared := ag.ArenaOf(loss)
			if shared == nil {
				t.Fatal("the loss of an arena-less tape carries no arena")
			}
			for i, n := range tape {
				if ag.ArenaOf(n) != shared {
					t.Fatalf("tape node %d of %d draws from another arena than the loss", i, len(tape))
				}
			}
			ag.Backward(loss)
			grads := make([]*tensor.Tensor, len(leaves))
			for i, l := range leaves {
				grads[i] = l.Grad().Clone()
				l.ZeroGrad()
			}

			outIn, leavesIn := tc.build(ag.NewArena())
			lossIn := ag.MeanAll(ag.Mul(outIn, outIn))
			ag.Backward(lossIn)
			finite(t, "loss", loss.Value())
			ag.BitsEq(t, "output", outIn.Value(), out.Value())
			ag.BitsEq(t, "loss", lossIn.Value(), loss.Value())
			for i, l := range leavesIn {
				flowing(t, fmt.Sprintf("leaf %d grad", i), grads[i])
				ag.BitsEq(t, fmt.Sprintf("leaf %d grad", i), l.Grad(), grads[i])
				l.ZeroGrad()
			}
		})
	}
}

// zooIn is the input every zoo architecture is built for: three channels
// so the CIFAR-like models build as they do in the federation; zooBatch is
// not a multiple of anything the kernels tile by.
var zooIn = model.Shape{C: 3, H: 16, W: 16}

const zooBatch, zooClasses = 5, 10

func zooLabels() []int {
	y := make([]int, zooBatch)
	for i := range y {
		y[i] = (3 * i) % zooClasses
	}
	return y
}

// zooTrainStep trains two same-seed builds of arch, one on a fresh arena
// each step and one on a warm arena that a step of other dirties before
// each of its own, for three steps and checks the loss, every parameter
// gradient and every state tensor (running statistics included) bit for
// bit after each.
func zooTrainStep(t *testing.T, arch, other string) {
	refM := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(31))
	warmM := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(31))
	warm, dirty := ag.NewArena(), dirtier(other)
	rng := tensor.NewRand(32)
	for step := 0; step < 3; step++ {
		dirty(warm)
		xt := tensor.New(zooBatch, zooIn.C, zooIn.H, zooIn.W)
		tensor.FillNormal(xt, 0, 1, rng)
		lossR := ag.CrossEntropy(refM.Forward(ag.ConstIn(ag.NewArena(), xt)), zooLabels())
		lossW := ag.CrossEntropy(warmM.Forward(ag.ConstIn(warm, xt)), zooLabels())
		ag.Backward(lossR)
		ag.Backward(lossW)
		finite(t, fmt.Sprintf("step %d loss", step), lossR.Value())
		ag.BitsEq(t, fmt.Sprintf("step %d loss", step), lossW.Value(), lossR.Value())
		sameGradsAndState(t, step, warmM, refM)
		warm.Reset()
	}
}

// zooGeneratorStep runs the server's generator step over arch as the
// frozen teacher: G(z) — trainable, training mode, on one arena — feeds
// the teacher — frozen, evaluation mode, mirrored onto a second arena as a
// server worker's is — and the loss is differentiated back into G through
// the teacher's input. The reference takes two fresh arenas each step; the
// warm side reuses its two, each dirtied by a step of other before each
// of its own.
func zooGeneratorStep(t *testing.T, arch, other string) {
	const zDim = 8
	refG := model.NewGenerator(zDim, zooIn, tensor.NewRand(41))
	warmG := model.NewGenerator(zDim, zooIn, tensor.NewRand(41))
	refT := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(42))
	warmT := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(42))
	for _, m := range []nn.Module{refT, warmT} {
		m.SetTraining(false)
		for _, p := range m.Params() {
			p.SetRequiresGrad(false)
		}
	}
	ar, worker, dirty := ag.NewArena(), ag.NewArena(), dirtier(other)
	rng := tensor.NewRand(43)
	for step := 0; step < 3; step++ {
		dirty(ar)
		dirty(worker)
		zt := tensor.New(zooBatch, zDim)
		tensor.FillNormal(zt, 0, 1, rng)
		imgR := refG.Forward(ag.ConstIn(ag.NewArena(), zt))
		lossR := ag.CrossEntropy(refT.Forward(ag.MirrorIn(ag.NewArena(), imgR)), zooLabels())
		imgW := warmG.Forward(ag.ConstIn(ar, zt))
		lossW := ag.CrossEntropy(warmT.Forward(ag.MirrorIn(worker, imgW)), zooLabels())
		ag.Backward(lossR)
		ag.Backward(lossW)
		finite(t, fmt.Sprintf("step %d loss", step), lossR.Value())
		ag.BitsEq(t, fmt.Sprintf("step %d loss", step), lossW.Value(), lossR.Value())
		sameGradsAndState(t, step, warmG, refG)
		for _, p := range warmT.Params() {
			if p.Grad() != nil {
				t.Fatalf("step %d: a frozen teacher parameter has a gradient", step)
			}
		}
		worker.Reset()
		ar.Reset()
	}
}

// sameGradsAndState checks every parameter gradient of want flowing, every
// parameter gradient and state tensor of got against want bit for bit,
// then zeroes both models' gradients.
func sameGradsAndState(t *testing.T, step int, got, want nn.Module) {
	t.Helper()
	gp, wp := got.Params(), want.Params()
	for i, p := range wp {
		if p.Grad() == nil {
			if gp[i].Grad() != nil {
				t.Fatalf("step %d: param %d: reference gradient nil, warm gradient set", step, i)
			}
			continue
		}
		if gp[i].Grad() == nil {
			t.Fatalf("step %d: param %d: warm gradient nil", step, i)
		}
		flowing(t, fmt.Sprintf("step %d param %d grad", step, i), p.Grad())
		ag.BitsEq(t, fmt.Sprintf("step %d param %d grad", step, i), gp[i].Grad(), p.Grad())
		p.ZeroGrad()
		gp[i].ZeroGrad()
	}
	state := map[string]*tensor.Tensor{}
	want.VisitState("", func(name string, v *tensor.Tensor) { state[name] = v })
	got.VisitState("", func(name string, v *tensor.Tensor) {
		ag.BitsEq(t, fmt.Sprintf("step %d state %s", step, name), v, state[name])
	})
}
