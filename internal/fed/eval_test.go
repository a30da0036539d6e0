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

// tapedEvaluate is EvaluateArena without the ForwardOnly mark: each batch
// on a fresh arena, its forward recording a tape.
func tapedEvaluate(m nn.Module, ds *data.Dataset, batchSize int) float64 {
	m.SetTraining(false)
	defer m.SetTraining(true)
	n, correct := ds.NumTest(), 0
	for lo := 0; lo < n; lo += batchSize {
		idx := make([]int, min(batchSize, n-lo))
		for i := range idx {
			idx[i] = lo + i
		}
		ar := ag.NewArena()
		x, y := ds.GatherTestIn(ar.Tensors(), idx)
		logits := m.Forward(ag.ConstIn(ar, x)).Value()
		correct += int(ag.Accuracy(logits, y)*float64(len(y)) + 0.5)
	}
	return float64(correct) / float64(n)
}

// TestEvaluateArenaForwardOnly: on an arena, evaluation hands out no tape
// node — its logits require no gradient although every parameter does —
// and returns bit for bit the logits, hence the accuracy, of a taped
// evaluation, for every SmallZoo and CIFARZoo architecture.
// The residual and branching nets read an activation more than once, the
// 40-sample batches lower their convs in tiles of 16, 16 and 8, and —
// this being a test — everything handed back early is NaN, so a lowering
// or activation released before its last reader shows up here.
func TestEvaluateArenaForwardOnly(t *testing.T) {
	cifar, _ := data.ByName("synthcifar10", data.Sizes{TrainPerClass: 1, TestPerClass: 5}, 8)
	for _, zoo := range []struct {
		archs []string
		ds    *data.Dataset
	}{
		{model.SmallZoo(), data.SynthMNIST(data.Sizes{TrainPerClass: 1, TestPerClass: 5}, 7)},
		{model.CIFARZoo(), cifar},
	} {
		ar := ag.NewArena() // one arena across the zoo, as a rig's is
		for i, arch := range zoo.archs {
			ds := zoo.ds
			m := model.MustBuild(arch, model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(uint64(20+i)))
			taped, arena := &logitTap{Module: m}, &logitTap{Module: m}
			want := tapedEvaluate(taped, ds, 40)
			got := EvaluateArena(arena, ds, 40, ar)
			if taped.taped != len(taped.logits) {
				t.Fatalf("%s: the taped evaluation taped %d of %d batches; the comparison needs all", arch, taped.taped, len(taped.logits))
			}
			if arena.taped != 0 {
				t.Errorf("%s: %d of %d batches left logits on a tape", arch, arena.taped, len(arena.logits))
			}
			if got != want {
				t.Errorf("%s: accuracy %v forward-only, %v taped", arch, got, want)
			}
			for b := range taped.logits {
				for j, w := range taped.logits[b] {
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

// TestEvaluateBatchIndependent: in evaluation mode every sample's logits
// depend on the sample alone, so an evaluation may step at any batch —
// the training batch of the arena it borrows — and report the same
// accuracy. For every registered architecture, with batch-norm running
// statistics moved off their initial values, the logits are bit-identical
// at batches 1, 7, 16, 64 and the whole test set, tiled convs and
// parallel row splits included, and so is the accuracy.
func TestEvaluateBatchIndependent(t *testing.T) {
	ds := data.MustMake(data.Config{
		Name: "batch-independent", Family: data.FamilyObjects, Classes: 10,
		C: 3, H: 16, W: 16, TrainPerClass: 2, TestPerClass: 7, Seed: 31,
	})
	in := model.Shape{C: ds.C, H: ds.H, W: ds.W}
	batches := []int{1, 7, 16, 64, ds.NumTest()}
	ar := ag.NewArena()
	for i, arch := range model.Names() {
		m := model.MustBuild(arch, in, ds.Classes, tensor.NewRand(uint64(40+i)))
		// One training-mode forward moves the running statistics.
		x := tensor.New(8, ds.C, ds.H, ds.W)
		tensor.FillNormal(x, 0.5, 2, tensor.NewRand(uint64(60+i)))
		m.Forward(ag.Const(x))
		var want []float64
		var wantAcc float64
		for _, b := range batches {
			tap := &logitTap{Module: m}
			acc := EvaluateArena(tap, ds, b, ar)
			var got []float64
			for _, l := range tap.logits {
				got = append(got, l...)
			}
			if want == nil {
				want, wantAcc = got, acc
				continue
			}
			if acc != wantAcc {
				t.Errorf("%s: accuracy %v at batch %d, %v at batch %d", arch, acc, b, wantAcc, batches[0])
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d logits at batch %d, %d at batch %d", arch, len(got), b, len(want), batches[0])
			}
			for j, w := range want {
				if math.Float64bits(got[j]) != math.Float64bits(w) {
					t.Fatalf("%s: logit %d = %v at batch %d, %v at batch %d", arch, j, got[j], b, w, batches[0])
				}
			}
		}
	}
}
