package experiments

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/codec"
)

// CommBytes is an ablation beyond the paper: the per-round communication
// footprint of FedZKT (each device ships its own model parameters both
// ways) versus FedMD (each device ships logits over the public subset both
// ways), on the CIFAR-10 stand-in. FedZKT's traffic scales with on-device
// model size; FedMD's with public-subset size × classes.
func CommBytes(p Params) (*Result, error) {
	t := &Table{
		ID:     "commbytes",
		Title:  "Per-round communication (SynthCIFAR-10, IID)",
		Header: []string{"Algorithm", "Upload/round", "Download/round", "Final accuracy"},
	}
	private, err := buildDataset("synthcifar10", p)
	if err != nil {
		return nil, err
	}
	public, err := buildDataset("synthcifar100", p)
	if err != nil {
		return nil, err
	}
	shards := shardsFor(private, p.Devices, "iid", p.Fed.Seed+8)
	archs := zooFor("synthcifar10", p.Devices)

	zkt, err := runFedZKT(p.fedzktConfig("synthcifar10", 81), private, archs, shards)
	if err != nil {
		return nil, fmt.Errorf("commbytes fedzkt: %w", err)
	}
	md, err := runFedMD(p.fedmdConfig("synthcifar10", 82), private, public, archs, shards)
	if err != nil {
		return nil, fmt.Errorf("commbytes fedmd: %w", err)
	}
	addRow := func(name string, upTotal, downTotal int64, rounds int, acc float64) {
		t.AddRow(name,
			fmt.Sprintf("%.1f KiB", float64(upTotal)/float64(rounds)/1024),
			fmt.Sprintf("%.1f KiB", float64(downTotal)/float64(rounds)/1024),
			pct(acc))
	}
	up, down := zkt.TotalBytes()
	addRow("FedZKT", up, down, len(zkt), zkt.FinalGlobalAcc())
	up, down = md.TotalBytes()
	addRow("FedMD", up, down, len(md), md.FinalMeanDeviceAcc())
	return &Result{Tables: []*Table{t}}, nil
}

// GeneratorSweep is an ablation beyond the paper: FedZKT's final accuracy
// as a function of the server distillation budget n_D and the generator's
// noise dimensionality, on the MNIST stand-in. It quantifies the
// compute/quality trade of the server phase (README.md "Server scaling").
func GeneratorSweep(p Params) (*Result, error) {
	ds, err := buildDataset("synthmnist", p)
	if err != nil {
		return nil, err
	}
	shards := shardsFor(ds, p.Devices, "iid", p.Fed.Seed+9)
	archs := zooFor("synthmnist", p.Devices)

	iters := &Table{
		ID:     "gensweep-iters",
		Title:  "Distillation budget sweep (SynthMNIST, IID)",
		Header: []string{"n_D (iters/round)", "Final global accuracy"},
	}
	factors := []float64{0.5, 1, 2}
	if p.Scale == ScaleSmoke {
		factors = []float64{0.5, 1}
	}
	for i, f := range factors {
		cfg := p.fedzktConfig("synthmnist", 90+uint64(i))
		cfg.DistillIters = max(int(float64(p.DistillIters)*f), 1)
		hist, err := runFedZKT(cfg, ds, archs, shards)
		if err != nil {
			return nil, fmt.Errorf("gensweep iters x%v: %w", f, err)
		}
		iters.AddRow(fmt.Sprintf("%d", cfg.DistillIters), pct(hist.FinalGlobalAcc()))
	}

	zdim := &Table{
		ID:     "gensweep-zdim",
		Title:  "Generator noise dimension sweep (SynthMNIST, IID)",
		Header: []string{"z dimension", "Final global accuracy"},
	}
	zdims := []int{8, 32, 64}
	if p.Scale == ScaleSmoke {
		zdims = []int{8, 32}
	}
	for i, z := range zdims {
		cfg := p.fedzktConfig("synthmnist", 95+uint64(i))
		cfg.ZDim = z
		hist, err := runFedZKT(cfg, ds, archs, shards)
		if err != nil {
			return nil, fmt.Errorf("gensweep zdim %d: %w", z, err)
		}
		zdim.AddRow(fmt.Sprintf("%d", z), pct(hist.FinalGlobalAcc()))
	}
	return &Result{Tables: []*Table{iters, zdim}}, nil
}

// Codecs is an ablation beyond the paper: the same seeded federation under
// every state codec, on the MNIST stand-in — what a codec saves in resident
// replica-slot bytes per device and wire traffic per round, and what it
// costs in final global accuracy against dense float64 (the first row, so
// its Δ is 0 by construction).
func Codecs(p Params) (*Result, error) {
	t := &Table{
		ID:     "codecs",
		Title:  "State-codec trade-off (SynthMNIST, IID)",
		Header: []string{"Codec", "State B/device", "Wire MB/round", "Global acc", "Δ acc vs float64"},
	}
	ds, err := buildDataset("synthmnist", p)
	if err != nil {
		return nil, err
	}
	shards := shardsFor(ds, p.Devices, "iid", p.Fed.Seed+10)
	archs := zooFor("synthmnist", p.Devices)
	var denseAcc float64
	for _, name := range codec.Names() {
		cfg := p.fedzktConfig("synthmnist", 100)
		cfg.StateCodec = name
		cfg.CheckpointDir = p.checkpointDirFor("synthmnist-"+name, 100)
		co, err := runCoordinator(cfg, ds, archs, shards)
		if err != nil {
			return nil, fmt.Errorf("codecs %s: %w", name, err)
		}
		hist := co.History()
		up, down := hist.TotalBytes()
		acc := hist.FinalGlobalAcc()
		if name == codec.Float64 {
			denseAcc = acc
		}
		t.AddRow(name,
			fmt.Sprintf("%d", co.Server().ResidentStateBytes()/int64(p.Devices)),
			fmt.Sprintf("%.3f", float64(up+down)/float64(len(hist))/1e6),
			pct(acc),
			fmt.Sprintf("%+.2fpp", 100*(acc-denseAcc)))
		if err := co.Close(); err != nil {
			return nil, fmt.Errorf("codecs %s: %w", name, err)
		}
	}
	return &Result{Tables: []*Table{t}}, nil
}
