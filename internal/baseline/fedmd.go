// Package baseline implements the comparison systems of the paper's
// evaluation: FedMD (public-dataset federated distillation, the paper's
// baseline), FedAvg (the classical homogeneous-model algorithm, used for
// sanity checks), and the standalone lower/upper bound trainings of
// Table III.
package baseline

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/optim"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// FedMDConfig parameterises a FedMD run (Li & Wang, 2019).
type FedMDConfig struct {
	// Rounds is the number of communication rounds.
	Rounds int
	// PublicSubset is the number of public samples scored for consensus
	// each round.
	PublicSubset int
	// TransferEpochs is the initial transfer-learning phase: epochs of
	// training on the public dataset, then on the private shard.
	TransferEpochs int
	// DigestEpochs is the number of passes aligning each model to the
	// consensus logits.
	DigestEpochs int
	// RevisitEpochs is the number of local epochs on private data per
	// round.
	RevisitEpochs int
	// BatchSize is the mini-batch size for all phases.
	BatchSize int
	// LR is the SGD learning rate.
	LR float64
	// Seed drives all randomness.
	Seed uint64
}

func (c FedMDConfig) withDefaults() FedMDConfig {
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.PublicSubset == 0 {
		c.PublicSubset = 128
	}
	if c.TransferEpochs == 0 {
		c.TransferEpochs = 2
	}
	if c.DigestEpochs == 0 {
		c.DigestEpochs = 2
	}
	if c.RevisitEpochs == 0 {
		c.RevisitEpochs = 2
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	return c
}

// FedMD runs public-dataset federated distillation: every round, devices
// score a public subset, the server averages the class scores into a
// consensus, devices digest the consensus (ℓ1 logit matching) and then
// revisit their private data. Knowledge quality therefore depends on how
// well the public data covers the private distribution — the
// data-dependency FedZKT removes.
type FedMD struct {
	cfg     FedMDConfig
	private *data.Dataset
	public  *data.Dataset
	devices []*fed.Device
	// arenas[i] is device i's step-scoped allocator for the whole run:
	// transfer learning, every round's digest and revisit, evaluation.
	arenas []*ag.Arena
}

// NewFedMD builds a FedMD federation. Public labels are folded onto the
// private class space (label mod classes) for the transfer-learning
// phase — a simplification of this simulation, whose synthetic public sets
// (README.md "Layout", internal/data) have up to 100 classes.
func NewFedMD(cfg FedMDConfig, private, public *data.Dataset, archs []string, shards [][]int) (*FedMD, error) {
	cfg = cfg.withDefaults()
	if len(shards) == 0 || len(archs) == 0 {
		return nil, fmt.Errorf("baseline: fedmd needs devices and architectures")
	}
	if private.C != public.C || private.H != public.H || private.W != public.W {
		return nil, fmt.Errorf("baseline: public shape %dx%dx%d differs from private %dx%dx%d",
			public.C, public.H, public.W, private.C, private.H, private.W)
	}
	in := model.Shape{C: private.C, H: private.H, W: private.W}
	f := &FedMD{cfg: cfg, private: private, public: public}
	for i := range shards {
		if len(shards[i]) == 0 {
			return nil, fmt.Errorf("baseline: device %d has an empty shard", i)
		}
		arch := archs[i%len(archs)]
		m, err := model.Build(arch, in, private.Classes, tensor.NewRand(cfg.Seed+uint64(2000+i)))
		if err != nil {
			return nil, fmt.Errorf("baseline: device %d: %w", i, err)
		}
		f.devices = append(f.devices, fed.NewDevice(i, arch, m, data.NewSubset(private, shards[i])))
		f.arenas = append(f.arenas, ag.NewArena())
	}
	return f, nil
}

// Devices exposes the federation's devices.
func (f *FedMD) Devices() []*fed.Device { return f.devices }

// Run executes the transfer-learning phase followed by cfg.Rounds FedMD
// rounds, returning per-round metrics (MeanDeviceAcc is the headline
// number; FedMD has no global model).
func (f *FedMD) Run(ctx context.Context) (fed.History, error) {
	cfg := f.cfg
	if err := f.transferPhase(); err != nil {
		return nil, err
	}
	hist := make(fed.History, 0, cfg.Rounds)
	rng := tensor.NewRand(cfg.Seed + 55)
	for round := 1; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return hist, fmt.Errorf("baseline: fedmd cancelled at round %d: %w", round, err)
		}
		start := time.Now()
		m := fed.RoundMetrics{Round: round}
		m.Active = make([]int, len(f.devices))
		for i := range m.Active {
			m.Active[i] = i
		}

		// 1. Communicate: score a fresh public subset on every device.
		subset := samplePublic(f.public.NumTrain(), cfg.PublicSubset, rng)
		px, _ := f.public.GatherTrain(subset)
		scores := make([]*tensor.Tensor, len(f.devices))
		var wg sync.WaitGroup
		for i, d := range f.devices {
			wg.Add(1)
			go func(i int, dev *fed.Device) {
				defer wg.Done()
				scores[i] = score(dev.Model, px, cfg.BatchSize, f.arenas[i])
			}(i, d)
		}
		wg.Wait()

		// 2. Aggregate: consensus is the mean of the class scores.
		consensus := scores[0].Clone()
		for _, s := range scores[1:] {
			tensor.AccumInto(consensus, s)
		}
		tensor.ScaleInPlace(consensus, 1/float64(len(scores)))

		logitBytes := fed.WireBytes(consensus.Len(), fed.WidthFloat64)
		m.BytesUp = logitBytes * int64(len(f.devices))
		m.BytesDown = logitBytes * int64(len(f.devices))

		// 3+4. Digest the consensus, then revisit private data.
		errs := make([]error, len(f.devices))
		for i, d := range f.devices {
			wg.Add(1)
			go func(i int, dev *fed.Device) {
				defer wg.Done()
				drng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<18 + uint64(i)<<3 + 0x3D))
				war := f.arenas[i]
				if err := digest(dev.Model, px, consensus, cfg.DigestEpochs, cfg.BatchSize, cfg.LR, drng, war); err != nil {
					errs[i] = err
					return
				}
				local := fed.LocalConfig{Epochs: cfg.RevisitEpochs, BatchSize: cfg.BatchSize, LR: cfg.LR}
				dev.Scratch = war
				_, err := dev.LocalUpdate(local, drng)
				dev.Scratch = nil
				if err != nil {
					errs[i] = err
				}
			}(i, d)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return hist, fmt.Errorf("baseline: fedmd round %d: %w", round, err)
			}
		}

		m.DeviceAcc = fed.EvaluateAllOn(f.devices, f.private, cfg.BatchSize, f.arenas)
		m.MeanDeviceAcc = fed.Mean(m.DeviceAcc)
		m.Elapsed = time.Since(start)
		hist = append(hist, m)
	}
	return hist, nil
}

// transferPhase pre-trains every device on the (relabelled) public data
// and then on its private shard.
func (f *FedMD) transferPhase() error {
	cfg := f.cfg
	pubLabels := make([]int, f.public.NumTrain())
	for i, y := range f.public.TrainY {
		pubLabels[i] = y % f.private.Classes
	}
	errs := make([]error, len(f.devices))
	var wg sync.WaitGroup
	for i, d := range f.devices {
		wg.Add(1)
		go func(i int, dev *fed.Device) {
			defer wg.Done()
			rng := tensor.NewRand(cfg.Seed ^ (uint64(i)<<7 + 0x7F))
			opt := optim.NewSGD(dev.Model.Params(), cfg.LR, 0, 0)
			dev.Model.SetTraining(true)
			war := f.arenas[i]
			for ep := 0; ep < cfg.TransferEpochs; ep++ {
				for _, idx := range data.ShuffledBatches(f.public.NumTrain(), cfg.BatchSize, rng) {
					bi := war.Tensors().Ints(len(idx))
					by := war.Tensors().Ints(len(idx))
					for j, ix := range idx {
						bi[j] = ix
						by[j] = pubLabels[ix]
					}
					x, _ := f.public.GatherTrainIn(war.Tensors(), bi)
					opt.ZeroGrad()
					ag.Backward(ag.CrossEntropy(dev.Model.Forward(ag.ConstIn(war, x)), by))
					opt.Step()
					war.Reset()
				}
			}
			local := fed.LocalConfig{Epochs: cfg.TransferEpochs, BatchSize: cfg.BatchSize, LR: cfg.LR}
			dev.Scratch = war
			_, err := dev.LocalUpdate(local, rng)
			dev.Scratch = nil
			if err != nil {
				errs[i] = err
			}
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("baseline: fedmd transfer phase: %w", err)
		}
	}
	return nil
}

// digest aligns a model's public-subset logits to the consensus with an ℓ1
// logit loss (FedMD's mean-absolute-error alignment). Batches, activations
// and the tape live in the caller's arena, reset after every step.
func digest(m nn.Module, px *tensor.Tensor, consensus *tensor.Tensor, epochs, batch int, lr float64, rng *rand.Rand, ar *ag.Arena) error {
	n := px.Dim(0)
	opt := optim.NewSGD(m.Params(), lr, 0, 0)
	m.SetTraining(true)
	rows := px.Len() / n
	cCols := consensus.Len() / n
	for ep := 0; ep < epochs; ep++ {
		perm := rng.Perm(n)
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			idx := perm[lo:hi]
			bx := ar.Tensors().NewRaw(len(idx), px.Dim(1), px.Dim(2), px.Dim(3))
			bc := ar.Tensors().NewRaw(len(idx), cCols)
			for j, ix := range idx {
				copy(bx.Data()[j*rows:(j+1)*rows], px.Data()[ix*rows:(ix+1)*rows])
				copy(bc.Data()[j*cCols:(j+1)*cCols], consensus.Data()[ix*cCols:(ix+1)*cCols])
			}
			logits := m.Forward(ag.ConstIn(ar, bx))
			loss := ag.Scale(1/float64(len(idx)), ag.SumAll(ag.Abs(ag.Sub(logits, ag.Const(bc)))))
			opt.ZeroGrad()
			ag.Backward(loss)
			opt.Step()
			ar.Reset()
		}
	}
	return nil
}

// score returns m's evaluation-mode logits for every row of px. It forwards
// batch rows at a time on ar, marked ForwardOnly and reset after each
// chunk, and copies each chunk's logits into one tensor. Eval-mode logits
// do not depend on the batch (fed.TestEvaluateBatchIndependent), so they
// are those of one whole-subset forward, and no chunk is a larger step on
// ar than a training step.
func score(m nn.Module, px *tensor.Tensor, batch int, ar *ag.Arena) *tensor.Tensor {
	n := px.Dim(0)
	rows := px.Len() / n
	m.SetTraining(false)
	defer m.SetTraining(true)
	ar.ForwardOnly(true)
	defer ar.ForwardOnly(false)
	var out *tensor.Tensor
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		bx := ar.Tensors().NewRaw(hi-lo, px.Dim(1), px.Dim(2), px.Dim(3))
		copy(bx.Data(), px.Data()[lo*rows:hi*rows])
		logits := m.Forward(ag.ConstIn(ar, bx)).Value()
		if out == nil {
			out = tensor.New(n, logits.Dim(1))
		}
		copy(out.Data()[lo*logits.Dim(1):], logits.Data())
		ar.Reset()
	}
	return out
}

// samplePublic draws m distinct indices from [0,n).
func samplePublic(n, m int, rng *rand.Rand) []int {
	if m > n {
		m = n
	}
	return rng.Perm(n)[:m]
}
