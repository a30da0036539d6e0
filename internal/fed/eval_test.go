package fed

import (
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// logitTap wraps a model to see what an evaluation makes of it: whether
// each batch's logits sit on a tape, and their values.
type logitTap struct {
	nn.Module
	taped  int
	logits [][]float64
}

func (p *logitTap) Forward(x *ag.Variable) *ag.Variable {
	out := p.Module.Forward(x)
	if out.RequiresGrad() {
		p.taped++
	}
	p.logits = append(p.logits, append([]float64(nil), out.Value().Data()...))
	return out
}

// TestEvaluateArenaForwardOnly: on an arena, evaluation hands out no tape
// node — its logits require no gradient although every parameter does —
// and returns bit for bit the logits, hence the accuracy, of a taped
// evaluation on the heap, for every SmallZoo and CIFARZoo architecture.
// The residual and branching nets read an activation more than once, the
// 40-sample batches lower their convs in tiles of 16, 16 and 8, and —
// this being a test — everything handed back early is NaN, so a lowering
// or activation released before its last reader shows up here.
func TestEvaluateArenaForwardOnly(t *testing.T) {
	for _, zoo := range []struct {
		archs []string
		ds    *data.Dataset
	}{
		{model.SmallZoo(), data.SynthMNIST(data.Sizes{TrainPerClass: 1, TestPerClass: 5}, 7)},
		{model.CIFARZoo(), data.SynthCIFAR10(data.Sizes{TrainPerClass: 1, TestPerClass: 5}, 8)},
	} {
		ar := ag.NewArena() // one arena across the zoo, as a rig's is
		for i, arch := range zoo.archs {
			ds := zoo.ds
			m := model.MustBuild(arch, model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(uint64(20+i)))
			heap, arena := &logitTap{Module: m}, &logitTap{Module: m}
			want := EvaluateArena(heap, ds, 40, nil)
			got := EvaluateArena(arena, ds, 40, ar)
			if heap.taped != len(heap.logits) {
				t.Fatalf("%s: the heap evaluation taped %d of %d batches; the comparison needs all", arch, heap.taped, len(heap.logits))
			}
			if arena.taped != 0 {
				t.Errorf("%s: %d of %d batches left logits on a tape", arch, arena.taped, len(arena.logits))
			}
			if got != want {
				t.Errorf("%s: accuracy %v forward-only, %v taped", arch, got, want)
			}
			for b := range heap.logits {
				for j, w := range heap.logits[b] {
					if g := arena.logits[b][j]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: batch %d logit %d = %v forward-only, %v taped", arch, b, j, g, w)
					}
				}
			}
			// The mark is the evaluation's, not the arena's: the next
			// step on it tapes again.
			x := ar.Tensors().New(2, ds.C, ds.H, ds.W)
			if !m.Forward(ag.ConstIn(ar, x)).RequiresGrad() {
				t.Errorf("%s: the arena stayed forward-only after the evaluation", arch)
			}
			ar.Reset()
		}
	}
}
