package baseline

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// StandaloneConfig parameterises an isolated (non-federated) training run,
// used for the Table III lower/upper bounds.
type StandaloneConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      uint64
}

func (c StandaloneConfig) withDefaults() StandaloneConfig {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	return c
}

// TrainStandalone trains a fresh instance of arch on the given training
// indices of ds with a device's local update (Algorithm 2) and returns its
// final test accuracy.
//
// With idx = a device's shard it yields the paper's *lower bound* (own
// data only); with idx = the full training split it yields the *upper
// bound* (access to all peers' data).
func TrainStandalone(cfg StandaloneConfig, arch string, ds *data.Dataset, idx []int) (float64, error) {
	cfg = cfg.withDefaults()
	if len(idx) == 0 {
		return 0, fmt.Errorf("baseline: standalone training needs samples")
	}
	in := model.Shape{C: ds.C, H: ds.H, W: ds.W}
	m, err := model.Build(arch, in, ds.Classes, tensor.NewRand(cfg.Seed+11))
	if err != nil {
		return 0, fmt.Errorf("baseline: standalone %s: %w", arch, err)
	}
	dev := fed.NewDevice(0, arch, m, data.NewSubset(ds, idx))
	dev.Scratch = ag.NewArena()
	local := fed.LocalConfig{Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, LR: cfg.LR, Momentum: cfg.Momentum}
	if _, err := dev.LocalUpdate(local, tensor.NewRand(cfg.Seed+17)); err != nil {
		return 0, fmt.Errorf("baseline: standalone %s: %w", arch, err)
	}
	return fed.EvaluateArena(m, ds, cfg.BatchSize, dev.Scratch), nil
}

// Bounds holds one device's Table III row.
type Bounds struct {
	Device int
	Arch   string
	Lower  float64 // trained on its own shard only
	Upper  float64 // trained on the union of all shards
}

// LowerUpperBounds computes the Table III lower and upper bounds for every
// device: lower trains each architecture on its own shard, upper on the
// full training split.
func LowerUpperBounds(cfg StandaloneConfig, ds *data.Dataset, archs []string, shards [][]int) ([]Bounds, error) {
	all := make([]int, ds.NumTrain())
	for i := range all {
		all[i] = i
	}
	out := make([]Bounds, len(shards))
	for i := range shards {
		arch := archs[i%len(archs)]
		low, err := TrainStandalone(cfg, arch, ds, shards[i])
		if err != nil {
			return nil, fmt.Errorf("baseline: lower bound device %d: %w", i, err)
		}
		cfgUp := cfg
		cfgUp.Seed += uint64(100 + i)
		up, err := TrainStandalone(cfgUp, arch, ds, all)
		if err != nil {
			return nil, fmt.Errorf("baseline: upper bound device %d: %w", i, err)
		}
		out[i] = Bounds{Device: i, Arch: arch, Lower: low, Upper: up}
	}
	return out, nil
}
