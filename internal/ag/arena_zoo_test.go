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

// TestArenaGradsBitIdenticalToHeap pins the arena path (recycled buffers,
// slab nodes, fused first-accumulation, lowerings, backward scratch and
// interior gradients released at their last read — NaN-filled on release,
// this being a test) to the heap path bit for bit: same inputs, same
// parameters, identical loss and identical leaf gradients — repeatedly,
// across Reset cycles, so buffer recycling is exercised — in the four ways
// a conv meets its lowering: trainable (the input kept, lowered again by
// the backward), frozen weights under an input gradient (no lowering
// outlives the forward), an input covered by a shared ColMemo (the
// lowering not the node's to release), and a ForwardOnly arena (the same
// loss, no tape at all). On both paths every interior gradient is gone
// when Backward returns, except on the nodes the retained row marks with
// RetainGrad, which read the same bits on both.
//
// The zoo row runs every architecture in model.Names() the same way, with
// its chains discarding every activation no recorded backward declared it
// reads: a training step, and the generator step's shape — a trainable
// generator feeding a frozen evaluation-mode teacher mirrored onto a second
// arena, which differentiates the teacher's input. A backward reading a
// value its op did not declare reads NaN here.
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
			heapP, arenaP := ag.NetParams(5), ag.NetParams(5)
			if tc.frozen {
				for _, p := range []map[string]*ag.Variable{heapP, arenaP} {
					p["w1"].SetRequiresGrad(false)
					p["w2"].SetRequiresGrad(false)
				}
			}
			ar, phase := ag.NewArena(), ag.NewArena()
			memo := ag.NewColMemo(phase)
			ar.ShareColMemo(memo)
			ar.ForwardOnly(tc.forwardOnly)
			for step := 0; step < 3; step++ {
				if tc.covered {
					memo.Rebind(xt)
				}
				xh, xa := ag.NewVar(xt, tc.frozen), ag.NewVarIn(ar, xt, tc.frozen)
				lossH := ag.BuildNet(xh, heapP)
				lossA := ag.BuildNet(xa, arenaP)
				tapeH, tapeA := ag.Interior(lossH), ag.Interior(lossA)
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
				ag.Backward(lossH)
				ag.Backward(lossA)

				for i, n := range tapeH {
					if tc.retained && i%2 == 0 {
						if n.Grad() == nil || tapeA[i].Grad() == nil {
							t.Fatalf("step %d: retained node %d lost its gradient", step, i)
						}
						ag.BitsEq(t, "retained interior grad", tapeA[i].Grad(), n.Grad())
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
					ag.BitsEq(t, "input gradient", xa.Grad(), xh.Grad())
				}
				if tc.covered && memo.Entries() != 1 {
					t.Fatalf("step %d: memo holds %d lowerings, want the first layer's", step, memo.Entries())
				}
				for name, hp := range heapP {
					ap := arenaP[name]
					if hp.Grad() == nil || tc.forwardOnly {
						if ap.Grad() != nil {
							t.Fatalf("step %d: %s: heap grad nil, arena grad set", step, name)
						}
						continue
					}
					ag.BitsEq(t, name+" grad", ap.Grad(), hp.Grad())
				}
				// Running statistics evolved identically.
				ag.BitsEq(t, "running mean", arenaP["rm"].Value(), heapP["rm"].Value())
				ag.BitsEq(t, "running var", arenaP["rv"].Value(), heapP["rv"].Value())
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
	t.Run("zoo", func(t *testing.T) {
		for _, arch := range model.Names() {
			t.Run(arch+"/train", func(t *testing.T) { zooTrainStep(t, arch) })
			t.Run(arch+"/generator step", func(t *testing.T) { zooGeneratorStep(t, arch) })
		}
	})
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

// zooTrainStep trains two same-seed builds of arch, one on the heap and
// one on an arena, for three steps and checks the loss, every parameter
// gradient and every state tensor (running statistics included) bit for
// bit after each.
func zooTrainStep(t *testing.T, arch string) {
	heapM := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(31))
	arenaM := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(31))
	ar := ag.NewArena()
	rng := tensor.NewRand(32)
	for step := 0; step < 3; step++ {
		xt := tensor.New(zooBatch, zooIn.C, zooIn.H, zooIn.W)
		tensor.FillNormal(xt, 0, 1, rng)
		lossH := ag.CrossEntropy(heapM.Forward(ag.Const(xt)), zooLabels())
		lossA := ag.CrossEntropy(arenaM.Forward(ag.ConstIn(ar, xt)), zooLabels())
		ag.Backward(lossH)
		ag.Backward(lossA)
		ag.BitsEq(t, fmt.Sprintf("step %d loss", step), lossA.Value(), lossH.Value())
		sameGradsAndState(t, step, arenaM, heapM)
		ar.Reset()
	}
}

// zooGeneratorStep runs the server's generator step over arch as the
// frozen teacher: G(z) — trainable, training mode, on one arena — feeds
// the teacher — frozen, evaluation mode, mirrored onto a second arena as a
// server worker's is — and the loss is differentiated back into G through
// the teacher's input.
func zooGeneratorStep(t *testing.T, arch string) {
	const zDim = 8
	heapG := model.NewGenerator(zDim, zooIn, tensor.NewRand(41))
	arenaG := model.NewGenerator(zDim, zooIn, tensor.NewRand(41))
	heapT := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(42))
	arenaT := model.MustBuild(arch, zooIn, zooClasses, tensor.NewRand(42))
	for _, m := range []nn.Module{heapT, arenaT} {
		m.SetTraining(false)
		for _, p := range m.Params() {
			p.SetRequiresGrad(false)
		}
	}
	ar, worker := ag.NewArena(), ag.NewArena()
	rng := tensor.NewRand(43)
	for step := 0; step < 3; step++ {
		zt := tensor.New(zooBatch, zDim)
		tensor.FillNormal(zt, 0, 1, rng)
		lossH := ag.CrossEntropy(heapT.Forward(heapG.Forward(ag.Const(zt))), zooLabels())
		img := arenaG.Forward(ag.ConstIn(ar, zt))
		lossA := ag.CrossEntropy(arenaT.Forward(ag.MirrorIn(worker, img)), zooLabels())
		ag.Backward(lossH)
		ag.Backward(lossA)
		ag.BitsEq(t, fmt.Sprintf("step %d loss", step), lossA.Value(), lossH.Value())
		sameGradsAndState(t, step, arenaG, heapG)
		for _, p := range arenaT.Params() {
			if p.Grad() != nil {
				t.Fatalf("step %d: a frozen teacher parameter has a gradient", step)
			}
		}
		worker.Reset()
		ar.Reset()
	}
}

// sameGradsAndState checks every parameter gradient and state tensor of
// got against want bit for bit, then zeroes both models' gradients.
func sameGradsAndState(t *testing.T, step int, got, want nn.Module) {
	t.Helper()
	gp, wp := got.Params(), want.Params()
	for i, p := range wp {
		if p.Grad() == nil {
			if gp[i].Grad() != nil {
				t.Fatalf("step %d: param %d: heap gradient nil, arena gradient set", step, i)
			}
			continue
		}
		if gp[i].Grad() == nil {
			t.Fatalf("step %d: param %d: arena gradient nil", step, i)
		}
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
