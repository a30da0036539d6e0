package experiments

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/baseline"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
)

// Table2 reproduces Table II: the effect of the zero-shot distillation
// loss (KL divergence, ℓ1 norm, SL) on FedZKT's accuracy under the two
// challenging non-IID CIFAR-10 scenarios (quantity skew c=5 and Dirichlet
// β=0.5).
func Table2(p Params) (*Result, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Loss-function ablation for zero-shot distillation (SynthCIFAR-10, non-IID)",
		Header: []string{"Non-IID scenario", "KL-divergence", "ℓ1 norm", "SL loss"},
	}
	ds, err := buildDataset("synthcifar10", p)
	if err != nil {
		return nil, err
	}
	archs := zooFor("synthcifar10", p.Devices)
	scenarios := []struct{ label, regime string }{
		{"C = 5", "quantity:5"},
		{"β = 0.5", "dirichlet:0.5"},
	}
	for si, sc := range scenarios {
		shards := shardsFor(ds, p.Devices, sc.regime, p.Fed.Seed+uint64(200+si))
		row := []string{sc.label}
		for _, loss := range []fedzkt.LossKind{fedzkt.LossKL, fedzkt.LossL1, fedzkt.LossSL} {
			cfg := p.fedzktConfig("synthcifar10", uint64(210+si*10)+uint64(loss))
			cfg.Loss = loss
			cfg.ProxMu = 0.1 // Table II runs use the ℓ2 term (paper §IV-C1 values)
			hist, err := runFedZKT(cfg, ds, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("table2 %s %v: %w", sc.label, loss, err)
			}
			row = append(row, pct(hist.FinalGlobalAcc()))
		}
		t.AddRow(row...)
	}
	return &Result{Tables: []*Table{t}}, nil
}

// Table3 reproduces Table III: the standalone lower bound (each
// architecture trained on its own shard only) and upper bound (trained on
// the union of all shards) for every device of the heterogeneous CIFAR
// federation.
func Table3(p Params) (*Result, error) {
	t := &Table{
		ID:     "table3",
		Title:  "Per-device lower/upper bounds (SynthCIFAR-10, IID)",
		Header: []string{"Device", "Architecture", "Upper Bound", "Lower Bound"},
	}
	ds, err := buildDataset("synthcifar10", p)
	if err != nil {
		return nil, err
	}
	k := 10
	if p.Scale == ScaleSmoke {
		k = 5
	}
	shards := shardsFor(ds, k, "iid", p.Fed.Seed+31)
	archs := zooFor("synthcifar10", k)
	epochs := p.roundsFor("synthcifar10") * p.localEpochsFor("synthcifar10")
	bounds, err := baseline.LowerUpperBounds(baseline.StandaloneConfig{
		Epochs:    epochs,
		BatchSize: p.BatchSize,
		LR:        0.05,
		Momentum:  0.9,
		Seed:      p.Fed.Seed + 32,
	}, ds, archs, shards)
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	for _, b := range bounds {
		t.AddRow(fmt.Sprintf("Device %d", b.Device+1), b.Arch, pct(b.Upper), pct(b.Lower))
	}
	return &Result{Tables: []*Table{t}}, nil
}

// Table4 reproduces Table IV: FedZKT accuracy with and without the ℓ2
// proximal regularisation of Eq. 9 under the two non-IID CIFAR-10
// scenarios.
func Table4(p Params) (*Result, error) {
	t := &Table{
		ID:     "table4",
		Title:  "Effect of ℓ2 regularisation (SynthCIFAR-10, non-IID)",
		Header: []string{"Non-IID scenario", "no regularisation", "ℓ2 regularisation"},
	}
	ds, err := buildDataset("synthcifar10", p)
	if err != nil {
		return nil, err
	}
	archs := zooFor("synthcifar10", p.Devices)
	scenarios := []struct{ label, regime string }{
		{"C = 5", "quantity:5"},
		{"β = 0.5", "dirichlet:0.5"},
	}
	for si, sc := range scenarios {
		shards := shardsFor(ds, p.Devices, sc.regime, p.Fed.Seed+uint64(400+si))
		row := []string{sc.label}
		for _, mu := range []float64{0, 0.1} {
			cfg := p.fedzktConfig("synthcifar10", uint64(410+si*10)+uint64(mu*100))
			cfg.ProxMu = mu
			hist, err := runFedZKT(cfg, ds, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("table4 %s mu=%v: %w", sc.label, mu, err)
			}
			row = append(row, pct(hist.FinalGlobalAcc()))
		}
		t.AddRow(row...)
	}
	return &Result{Tables: []*Table{t}}, nil
}
