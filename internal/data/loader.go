package data

import (
	"fmt"
	"math/rand/v2"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// GatherTrainIn renders the training samples at the given indices into a
// batch tensor and label slice drawn from the given step-scoped arena.
// The returned batch obeys the arena lifetime: valid until the next Reset.
// Each sample is rendered from its recorded state on a generator of the
// call's own, so concurrent calls on distinct arenas are safe.
func (d *Dataset) GatherTrainIn(a *tensor.Arena, idx []int) (*tensor.Tensor, []int) {
	out, labels := batch(a, idx, d.TrainY, d.C, d.H, d.W)
	px := d.C * d.H * d.W
	od := out.Data()
	pcg := new(rand.PCG)
	rng := rand.New(pcg)
	for i, src := range idx {
		d.renderAt(d.trainAt[src], labels[i], od[i*px:(i+1)*px], pcg, rng)
	}
	return out, labels
}

// GatherTestIn assembles the test samples at the given indices, allocating
// from the given arena.
func (d *Dataset) GatherTestIn(a *tensor.Arena, idx []int) (*tensor.Tensor, []int) {
	out, labels := batch(a, idx, d.TestY, d.C, d.H, d.W)
	px := d.C * d.H * d.W
	od, xd := out.Data(), d.TestX.Data()
	for i, src := range idx {
		copy(od[i*px:(i+1)*px], xd[src*px:(src+1)*px])
	}
	return out, labels
}

// batch takes from a a batch for the samples at idx, its pixels unset, and
// their labels from y, checking every index.
func batch(a *tensor.Arena, idx []int, y []int, c, h, w int) (*tensor.Tensor, []int) {
	if len(idx) == 0 {
		panic("data: gather of empty index slice")
	}
	out := a.NewRaw(len(idx), c, h, w)
	labels := a.Ints(len(idx))
	for i, src := range idx {
		if src < 0 || src >= len(y) {
			panic(fmt.Sprintf("data: index %d out of range [0,%d)", src, len(y)))
		}
		labels[i] = y[src]
	}
	return out, labels
}

// Subset is a view over a dataset's training split, as held by one
// federated device.
type Subset struct {
	DS  *Dataset
	Idx []int
}

// NewSubset constructs a device-local view. The index slice is copied so
// later caller mutations cannot corrupt the subset.
func NewSubset(ds *Dataset, idx []int) *Subset {
	return &Subset{DS: ds, Idx: append([]int(nil), idx...)}
}

// Len returns the number of samples in the subset.
func (s *Subset) Len() int { return len(s.Idx) }

// BatchIn gathers the subset samples selected by local positions,
// allocating the gathered tensors from the given arena.
func (s *Subset) BatchIn(a *tensor.Arena, local []int) (*tensor.Tensor, []int) {
	global := a.Ints(len(local))
	for i, l := range local {
		global[i] = s.Idx[l]
	}
	return s.DS.GatherTrainIn(a, global)
}

// ShuffledBatches splits [0,n) into mini-batches of size batchSize after a
// Fisher-Yates shuffle; the final batch may be smaller. It panics if n or
// batchSize is non-positive.
func ShuffledBatches(n, batchSize int, rng *rand.Rand) [][]int {
	if n <= 0 || batchSize <= 0 {
		panic(fmt.Sprintf("data: ShuffledBatches(n=%d, batchSize=%d)", n, batchSize))
	}
	perm := rng.Perm(n)
	var out [][]int
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		out = append(out, perm[lo:hi])
	}
	return out
}

// NumTrain returns the number of training samples.
func (d *Dataset) NumTrain() int { return len(d.TrainY) }

// NumTest returns the number of test samples.
func (d *Dataset) NumTest() int { return len(d.TestY) }
