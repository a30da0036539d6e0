package fed

import (
	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/sched"
)

// Evaluate computes a model's top-1 accuracy on the dataset's test split,
// in evaluation mode (running batch-norm statistics), batched to bound
// memory. The model's training flag is restored to training mode on
// return, matching the runtime's convention that models are trained
// between evaluations.
func Evaluate(m nn.Module, ds *data.Dataset, batchSize int) float64 {
	return EvaluateArena(m, ds, batchSize, ag.NewArena())
}

// EvaluateArena is Evaluate drawing every batch and activation from the
// given step-scoped arena, which is reset after each batch — so repeated
// evaluations through one arena are allocation-free after warm-up. The
// arena is marked ForwardOnly for the duration: the model's parameters
// require gradients, but nothing here will ask for them, so no op records
// a tape node, batch norm and pooling save nothing, every conv lowering
// goes back to the arena as soon as its GEMM has read it, and a chain of
// layers hands each activation back once the next layer has read it. The
// arena must be non-nil and owned by the calling goroutine. The returned
// accuracy is identical regardless of arena and of batchSize: in
// evaluation mode a sample's logits depend on that sample alone, bit for
// bit (TestEvaluateBatchIndependent). Callers therefore pass the batch the
// arena trains at, so an evaluation is never the largest step the arena
// serves.
func EvaluateArena(m nn.Module, ds *data.Dataset, batchSize int, ar *ag.Arena) float64 {
	if batchSize <= 0 {
		batchSize = 64
	}
	m.SetTraining(false)
	defer m.SetTraining(true)
	ar.ForwardOnly(true)
	defer ar.ForwardOnly(false)
	n := ds.NumTest()
	correct := 0
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		idx := ar.Tensors().Ints(hi - lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, y := ds.GatherTestIn(ar.Tensors(), idx)
		logits := m.Forward(ag.ConstIn(ar, x)).Value()
		correct += int(ag.Accuracy(logits, y)*float64(len(y)) + 0.5)
		ar.Reset()
	}
	if n == 0 {
		return 0
	}
	return float64(correct) / float64(n)
}

// EvaluateAllParallel returns the test accuracy of every device's model,
// evaluating devices concurrently on up to workers goroutines (0 means
// GOMAXPROCS). Each device's model is evaluated independently on a
// per-worker arena (so a thousand-device evaluation allocates like a
// handful of them), and the result is identical for any worker count.
func EvaluateAllParallel(devices []*Device, ds *data.Dataset, batchSize, workers int) []float64 {
	arenas := make([]*ag.Arena, sched.EffectiveWorkers(len(devices), workers))
	for i := range arenas {
		arenas[i] = ag.NewArena()
	}
	return EvaluateAllOn(devices, ds, batchSize, arenas)
}

// EvaluateAllOn is EvaluateAllParallel on the caller's arenas: one worker
// per arena (no more than there are devices; at least one arena), worker
// w drawing from arenas[w]. A caller that evaluates every round keeps the
// set, so the arenas warm up once per run instead of once per call.
func EvaluateAllOn(devices []*Device, ds *data.Dataset, batchSize int, arenas []*ag.Arena) []float64 {
	accs := make([]float64, len(devices))
	sched.ForEachWorker(len(devices), len(arenas), func(i, w int) {
		accs[i] = EvaluateArena(devices[i].Model, ds, batchSize, arenas[w])
	})
	return accs
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
