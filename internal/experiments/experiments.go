// Package experiments reproduces every table and figure of the FedZKT
// evaluation (Tables I–IV, Figures 2–7) plus ablations beyond the paper
// (commbytes, gensweep, codecs) — accuracy is this package's question; time
// and bytes are bench/'s, byte-identity the golden fingerprint tests' —
// at three scales: Smoke (seconds, used by benchmarks and CI), Default
// (minutes per experiment on one CPU core), and Full (paper-sized loop
// counts; hours). See README.md "Layout" for the module index;
// paper-vs-measured results are regenerated with `fedzkt -exp <id>`, no
// recorded copy is kept.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"github.com/fedzkt/fedzkt/internal/baseline"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Scale selects the experiment sizing.
type Scale int

// Experiment scales.
const (
	// ScaleSmoke runs in seconds; used by the benchmark harness.
	ScaleSmoke Scale = iota + 1
	// ScaleDefault runs in minutes per experiment on a single core.
	ScaleDefault
	// ScaleFull uses paper-sized loop counts (50–100 rounds, n_D=200+,
	// batch 256); hours per experiment on CPU.
	ScaleFull
)

// ParseScale converts "smoke", "default" or "full".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "smoke":
		return ScaleSmoke, nil
	case "default":
		return ScaleDefault, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want smoke, default or full)", s)
	}
}

// Params holds the scale-dependent sizing of an experiment run.
type Params struct {
	Scale Scale
	// Img is the square image size (8 at smoke/default, 16 at full).
	Img int
	// TrainPerClass / TestPerClass size the synthetic datasets.
	TrainPerClass, TestPerClass int
	// Devices is K, the federation size (sweeps override it).
	Devices int
	// Rounds / RoundsCIFAR are the communication round counts (the paper
	// uses 50 for the small datasets and 100 for CIFAR-10).
	Rounds, RoundsCIFAR int
	// LocalEpochs / LocalEpochsCIFAR are T_l (paper: 5 and 10).
	LocalEpochs, LocalEpochsCIFAR int
	// DistillIters, StudentSteps, DistillBatch size the server phases.
	DistillIters, StudentSteps, DistillBatch int
	// BatchSize is the device batch size.
	BatchSize int
	// Fed is what every federation's configuration starts from: the flags
	// cmd/fedzkt binds to it (fedzkt.Config.BindFlags) reach every cell.
	// Fed.Seed is the base seed, offset per cell; the sizing fields above
	// overwrite Fed's, and Fed.CheckpointDir is the parent of one
	// subdirectory per cell (experiments run many federations; sharing one
	// directory would interleave their rotation).
	Fed fedzkt.Config
}

// ParamsFor returns the sizing for a scale.
func ParamsFor(scale Scale) Params {
	switch scale {
	case ScaleSmoke:
		return Params{
			Scale: scale, Img: 8, TrainPerClass: 12, TestPerClass: 6,
			Devices: 3, Rounds: 2, RoundsCIFAR: 2,
			LocalEpochs: 1, LocalEpochsCIFAR: 1,
			DistillIters: 6, StudentSteps: 2, DistillBatch: 16, BatchSize: 16,
			Fed: fedzkt.Config{Seed: 1},
		}
	case ScaleFull:
		return Params{
			Scale: scale, Img: 16, TrainPerClass: 200, TestPerClass: 50,
			Devices: 10, Rounds: 50, RoundsCIFAR: 100,
			LocalEpochs: 5, LocalEpochsCIFAR: 10,
			DistillIters: 200, StudentSteps: 1, DistillBatch: 256, BatchSize: 256,
			Fed: fedzkt.Config{Seed: 1},
		}
	default:
		return Params{
			Scale: ScaleDefault, Img: 8, TrainPerClass: 30, TestPerClass: 12,
			Devices: 5, Rounds: 8, RoundsCIFAR: 10,
			LocalEpochs: 2, LocalEpochsCIFAR: 2,
			DistillIters: 16, StudentSteps: 2, DistillBatch: 24, BatchSize: 16,
			Fed: fedzkt.Config{Seed: 1},
		}
	}
}

// buildDataset renders a named dataset (data.Spec) at the experiment's
// image size and per-class counts.
func buildDataset(name string, p Params) (*data.Dataset, error) {
	cfg, ok := data.Spec(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	cfg.H, cfg.W = p.Img, p.Img
	cfg.TrainPerClass, cfg.TestPerClass = p.TrainPerClass, p.TestPerClass
	if cfg.Classes > 10 {
		// Keep the 100-class public set about as large as the 10-class
		// private sets.
		cfg.TrainPerClass = max(p.TrainPerClass/10, 3)
		cfg.TestPerClass = max(p.TestPerClass/10, 2)
	}
	cfg.Seed ^= p.Fed.Seed
	return data.Make(cfg)
}

// colour reports whether name is one of the 3-channel (CIFAR-like)
// datasets, which get the larger zoo and the longer schedules.
func colour(name string) bool {
	cfg, _ := data.Spec(name)
	return cfg.C == 3
}

// zooFor picks the paper's architecture zoo for a dataset.
func zooFor(name string, k int) []string {
	if colour(name) {
		return model.ZooFor(model.CIFARZoo(), k)
	}
	return model.ZooFor(model.SmallZoo(), k)
}

// roundsFor returns the round count (CIFAR runs twice as long, as in the
// paper).
func (p Params) roundsFor(name string) int {
	if colour(name) {
		return p.RoundsCIFAR
	}
	return p.Rounds
}

func (p Params) localEpochsFor(name string) int {
	if colour(name) {
		return p.LocalEpochsCIFAR
	}
	return p.LocalEpochs
}

// fedzktConfig assembles the algorithm config for a dataset under these
// params, starting from p.Fed. Callers adjust fields (loss, prox, fraction)
// per experiment.
func (p Params) fedzktConfig(name string, seedOffset uint64) fedzkt.Config {
	cfg := p.Fed
	cfg.Rounds = p.roundsFor(name)
	cfg.LocalEpochs = p.localEpochsFor(name)
	cfg.DistillIters = p.DistillIters
	cfg.StudentSteps = p.StudentSteps
	cfg.DistillBatch = p.DistillBatch
	cfg.BatchSize = p.BatchSize
	cfg.ZDim = 32
	cfg.DeviceLR = 0.05
	cfg.ServerLR = 0.05
	cfg.GenLR = 3e-4
	cfg.Momentum = 0.9
	cfg.Seed = p.Fed.Seed + seedOffset
	cfg.CheckpointDir = p.checkpointDirFor(name, seedOffset)
	return cfg
}

// checkpointDirFor places one federation's durable checkpoints in a
// subdirectory keyed by its dataset name and seed offset — the cell
// identity within an experiment — so concurrent cells never interleave
// their rotation windows.
func (p Params) checkpointDirFor(name string, seedOffset uint64) string {
	if p.Fed.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(p.Fed.CheckpointDir, fmt.Sprintf("%s-%04d", name, seedOffset))
}

// fedmdConfig assembles the FedMD baseline config for a dataset.
func (p Params) fedmdConfig(name string, seedOffset uint64) baseline.FedMDConfig {
	return baseline.FedMDConfig{
		Rounds:         p.roundsFor(name),
		PublicSubset:   4 * p.DistillBatch,
		TransferEpochs: p.localEpochsFor(name),
		DigestEpochs:   1,
		RevisitEpochs:  p.localEpochsFor(name),
		BatchSize:      p.BatchSize,
		LR:             0.05,
		Seed:           p.Fed.Seed + seedOffset,
	}
}

// shardsFor partitions ds for k devices under a partition.ByRegime spec.
// The specs are literals of this package, so a rejected one is a bug.
func shardsFor(ds *data.Dataset, k int, regime string, seed uint64) [][]int {
	shards, err := partition.ByRegime(regime, ds.TrainY, ds.Classes, k, tensor.NewRand(seed+0x5AD))
	if err != nil {
		panic(err)
	}
	return shards
}

// runCoordinator builds and runs one FedZKT federation to completion. The
// caller closes it.
func runCoordinator(cfg fedzkt.Config, ds *data.Dataset, archs []string, shards [][]int) (*fedzkt.Coordinator, error) {
	co, err := fedzkt.New(cfg, ds, archs, shards)
	if err != nil {
		return nil, err
	}
	if _, err := co.Run(context.Background()); err != nil {
		return nil, errors.Join(err, co.Close())
	}
	return co, nil
}

// runFedZKT is runCoordinator for callers that want only the history.
func runFedZKT(cfg fedzkt.Config, ds *data.Dataset, archs []string, shards [][]int) (fed.History, error) {
	co, err := runCoordinator(cfg, ds, archs, shards)
	if err != nil {
		return nil, err
	}
	// Full finalised history: a resumed federation replays only the tail,
	// but the experiment tables should cover every round.
	return co.History(), co.Close()
}

// runFedMD builds and runs one FedMD federation.
func runFedMD(cfg baseline.FedMDConfig, private, public *data.Dataset, archs []string, shards [][]int) (fed.History, error) {
	fm, err := baseline.NewFedMD(cfg, private, public, archs, shards)
	if err != nil {
		return nil, err
	}
	return fm.Run(context.Background())
}

// publicFor maps each private dataset to its FedMD public dataset, per
// Table I (MNIST→FASHION, FASHION→MNIST, KMNIST→FASHION,
// CIFAR-10→CIFAR-100).
func publicFor(private string) string {
	switch private {
	case "synthmnist", "synthkmnist":
		return "synthfashion"
	case "synthfashion":
		return "synthmnist"
	case "synthcifar10":
		return "synthcifar100"
	default:
		return "synthfashion"
	}
}

// Experiment couples an id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) (*Result, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: IID accuracy, FedZKT vs FedMD", Run: Table1},
		{ID: "fig2", Title: "Figure 2: gradient norms of KL/ℓ1/SL losses (MNIST, IID)", Run: Fig2},
		{ID: "fig3", Title: "Figure 3: learning curves FedZKT vs FedMD (CIFAR-10, IID)", Run: Fig3},
		{ID: "fig4", Title: "Figure 4: non-IID sweeps (quantity & Dirichlet skew)", Run: Fig4},
		{ID: "table2", Title: "Table II: loss-function ablation (CIFAR-10, non-IID)", Run: Table2},
		{ID: "fig5", Title: "Figure 5: per-device curves, heterogeneous zoo (CIFAR-10, IID)", Run: Fig5},
		{ID: "table3", Title: "Table III: per-device lower/upper bounds (CIFAR-10, IID)", Run: Table3},
		{ID: "fig6", Title: "Figure 6: straggler sweep (MNIST & CIFAR-10, IID)", Run: Fig6},
		{ID: "table4", Title: "Table IV: ℓ2-regularisation ablation (CIFAR-10, non-IID)", Run: Table4},
		{ID: "fig7", Title: "Figure 7: device-count sweep (MNIST & CIFAR-10, IID)", Run: Fig7},
		{ID: "commbytes", Title: "Ablation: per-round communication, FedZKT vs FedMD", Run: CommBytes},
		{ID: "gensweep", Title: "Ablation: distillation iterations and z-dimension", Run: GeneratorSweep},
		{ID: "codecs", Title: "Ablation: state codecs against dense float64", Run: Codecs},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
