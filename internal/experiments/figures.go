package experiments

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/fedzkt"
)

// Fig2 reproduces Figure 2: the norm of the disagreement-loss gradient
// with respect to the generated input data, per communication round, for
// the KL-divergence, ℓ1-norm and SL losses (MNIST stand-in, IID). The
// paper's claim: KL gradients vanish, ℓ1 gradients are large and unstable,
// SL sits between.
func Fig2(p Params) (*Result, error) {
	f := &Figure{
		ID:     "fig2",
		Title:  "Norm of gradients w.r.t. input data (SynthMNIST, IID)",
		XLabel: "round",
		YLabel: "mean ‖∇ₓL‖ per sample",
	}
	ds, err := buildDataset("synthmnist", p)
	if err != nil {
		return nil, err
	}
	shards := shardsFor(ds, p.Devices, "iid", p.Fed.Seed)
	archs := zooFor("synthmnist", p.Devices)
	for _, loss := range []fedzkt.LossKind{fedzkt.LossSL, fedzkt.LossKL, fedzkt.LossL1} {
		cfg := p.fedzktConfig("synthmnist", 30+uint64(loss))
		cfg.Loss = loss
		cfg.ProbeGradNorm = true
		hist, err := runFedZKT(cfg, ds, archs, shards)
		if err != nil {
			return nil, fmt.Errorf("fig2 %v: %w", loss, err)
		}
		x := make([]float64, len(hist))
		y := make([]float64, len(hist))
		for i, m := range hist {
			x[i] = float64(m.Round)
			y[i] = m.InputGradNorm
		}
		f.AddSeries(loss.String()+" loss", x, y)
	}
	return &Result{Figures: []*Figure{f}}, nil
}

// Fig3 reproduces Figure 3: learning curves of FedZKT and FedMD on the
// CIFAR-10 stand-in under IID data, FedMD using the similar public set.
// The paper's claim: FedMD starts faster (it has usable public data from
// round one) but FedZKT overtakes as the generator improves.
func Fig3(p Params) (*Result, error) {
	f := &Figure{
		ID:     "fig3",
		Title:  "Learning curves (SynthCIFAR-10, IID)",
		XLabel: "round",
		YLabel: "accuracy",
	}
	private, err := buildDataset("synthcifar10", p)
	if err != nil {
		return nil, err
	}
	public, err := buildDataset("synthcifar100", p)
	if err != nil {
		return nil, err
	}
	shards := shardsFor(private, p.Devices, "iid", p.Fed.Seed+3)
	archs := zooFor("synthcifar10", p.Devices)

	zkt, err := runFedZKT(p.fedzktConfig("synthcifar10", 41), private, archs, shards)
	if err != nil {
		return nil, fmt.Errorf("fig3 fedzkt: %w", err)
	}
	md, err := runFedMD(p.fedmdConfig("synthcifar10", 42), private, public, archs, shards)
	if err != nil {
		return nil, fmt.Errorf("fig3 fedmd: %w", err)
	}
	rounds := make([]float64, len(zkt))
	for i := range zkt {
		rounds[i] = float64(zkt[i].Round)
	}
	f.AddSeries("FedZKT", rounds, zkt.GlobalAccSeries())
	mdRounds := make([]float64, len(md))
	for i := range md {
		mdRounds[i] = float64(md[i].Round)
	}
	f.AddSeries("FedMD", mdRounds, md.MeanDeviceAccSeries())
	return &Result{Figures: []*Figure{f}}, nil
}

// Fig4 reproduces Figure 4: final accuracy of FedZKT and FedMD under the
// two non-IID regimes — quantity-based label imbalance with c ∈ {2,3,4,5}
// classes per device (panels a–d) and distribution-based imbalance with
// Dirichlet β ∈ {0.1,0.5,1,5} (panels e–h) — on all four datasets.
func Fig4(p Params) (*Result, error) {
	datasets := []string{"synthmnist", "synthfashion", "synthkmnist", "synthcifar10"}
	cs := []int{2, 3, 4, 5}
	betas := []float64{0.1, 0.5, 1, 5}

	var figs []*Figure
	seed := uint64(100)
	for _, name := range datasets {
		private, err := buildDataset(name, p)
		if err != nil {
			return nil, err
		}
		public, err := buildDataset(publicFor(name), p)
		if err != nil {
			return nil, err
		}
		archs := zooFor(name, p.Devices)

		quantity := &Figure{
			ID:     "fig4-quantity-" + name,
			Title:  fmt.Sprintf("Quantity-based label imbalance (%s)", name),
			XLabel: "classes per device",
			YLabel: "accuracy",
		}
		var qx, qZKT, qMD []float64
		for _, c := range cs {
			seed++
			shards := shardsFor(private, p.Devices, fmt.Sprintf("quantity:%d", c), p.Fed.Seed+seed)
			zkt, err := runFedZKT(p.fedzktConfig(name, seed), private, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s c=%d fedzkt: %w", name, c, err)
			}
			md, err := runFedMD(p.fedmdConfig(name, seed), private, public, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s c=%d fedmd: %w", name, c, err)
			}
			qx = append(qx, float64(c))
			qZKT = append(qZKT, zkt.FinalGlobalAcc())
			qMD = append(qMD, md.FinalMeanDeviceAcc())
		}
		quantity.AddSeries("FedZKT", qx, qZKT)
		quantity.AddSeries("FedMD", qx, qMD)
		figs = append(figs, quantity)

		dirichlet := &Figure{
			ID:     "fig4-dirichlet-" + name,
			Title:  fmt.Sprintf("Distribution-based label imbalance (%s)", name),
			XLabel: "beta",
			YLabel: "accuracy",
		}
		var dx, dZKT, dMD []float64
		for _, beta := range betas {
			seed++
			shards := shardsFor(private, p.Devices, fmt.Sprintf("dirichlet:%v", beta), p.Fed.Seed+seed)
			zkt, err := runFedZKT(p.fedzktConfig(name, seed), private, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s beta=%v fedzkt: %w", name, beta, err)
			}
			md, err := runFedMD(p.fedmdConfig(name, seed), private, public, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s beta=%v fedmd: %w", name, beta, err)
			}
			dx = append(dx, beta)
			dZKT = append(dZKT, zkt.FinalGlobalAcc())
			dMD = append(dMD, md.FinalMeanDeviceAcc())
		}
		dirichlet.AddSeries("FedZKT", dx, dZKT)
		dirichlet.AddSeries("FedMD", dx, dMD)
		figs = append(figs, dirichlet)
	}
	return &Result{Figures: figs}, nil
}

// Fig5 reproduces Figure 5: the per-device learning curves of ten devices
// running the five heterogeneous CIFAR architectures (Table V's Models
// A–E, two devices each) under IID data.
func Fig5(p Params) (*Result, error) {
	f := &Figure{
		ID:     "fig5",
		Title:  "Per-device learning curves, heterogeneous zoo (SynthCIFAR-10, IID)",
		XLabel: "round",
		YLabel: "accuracy",
	}
	ds, err := buildDataset("synthcifar10", p)
	if err != nil {
		return nil, err
	}
	k := 10
	if p.Scale == ScaleSmoke {
		k = 5
	}
	shards := shardsFor(ds, k, "iid", p.Fed.Seed+5)
	archs := zooFor("synthcifar10", k)
	cfg := p.fedzktConfig("synthcifar10", 51)
	hist, err := runFedZKT(cfg, ds, archs, shards)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	rounds := make([]float64, len(hist))
	for i, m := range hist {
		rounds[i] = float64(m.Round)
	}
	for dev := 0; dev < k; dev++ {
		y := make([]float64, len(hist))
		for i, m := range hist {
			if dev < len(m.DeviceAcc) {
				y[i] = m.DeviceAcc[dev]
			}
		}
		f.AddSeries(fmt.Sprintf("device %d (%s)", dev+1, archs[dev]), rounds, y)
	}
	return &Result{Figures: []*Figure{f}}, nil
}

// Fig6 reproduces Figure 6: FedZKT's accuracy over rounds when only a
// fraction p of devices participates each round, for p ∈ {0.2,...,1.0},
// on the MNIST and CIFAR-10 stand-ins under IID data.
func Fig6(p Params) (*Result, error) {
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	var figs []*Figure
	for _, name := range []string{"synthmnist", "synthcifar10"} {
		ds, err := buildDataset(name, p)
		if err != nil {
			return nil, err
		}
		shards := shardsFor(ds, p.Devices, "iid", p.Fed.Seed+6)
		archs := zooFor(name, p.Devices)
		f := &Figure{
			ID:     "fig6-" + name,
			Title:  fmt.Sprintf("Straggler effect (%s, IID)", name),
			XLabel: "round",
			YLabel: "global accuracy",
		}
		for i, frac := range fractions {
			cfg := p.fedzktConfig(name, 60+uint64(i))
			cfg.ActiveFraction = frac
			hist, err := runFedZKT(cfg, ds, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s p=%v: %w", name, frac, err)
			}
			x := make([]float64, len(hist))
			for j, m := range hist {
				x[j] = float64(m.Round)
			}
			f.AddSeries(fmt.Sprintf("p = %.1f", frac), x, hist.GlobalAccSeries())
		}
		figs = append(figs, f)
	}
	return &Result{Figures: figs}, nil
}

// Fig7 reproduces Figure 7: FedZKT's learning curves for federation sizes
// K ∈ {5,10,15,20} on the MNIST and CIFAR-10 stand-ins under IID data.
// The paper's finding: the device count has a subtle (±2%) effect.
func Fig7(p Params) (*Result, error) {
	ks := []int{5, 10, 15, 20}
	if p.Scale == ScaleSmoke {
		ks = []int{2, 4}
	}
	var figs []*Figure
	for _, name := range []string{"synthmnist", "synthcifar10"} {
		ds, err := buildDataset(name, p)
		if err != nil {
			return nil, err
		}
		f := &Figure{
			ID:     "fig7-" + name,
			Title:  fmt.Sprintf("Effect of device count (%s, IID)", name),
			XLabel: "round",
			YLabel: "global accuracy",
		}
		for i, k := range ks {
			shards := shardsFor(ds, k, "iid", p.Fed.Seed+70+uint64(i))
			archs := zooFor(name, k)
			cfg := p.fedzktConfig(name, 70+uint64(i))
			hist, err := runFedZKT(cfg, ds, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s K=%d: %w", name, k, err)
			}
			x := make([]float64, len(hist))
			for j, m := range hist {
				x[j] = float64(m.Round)
			}
			f.AddSeries(fmt.Sprintf("%d devices", k), x, hist.GlobalAccSeries())
		}
		figs = append(figs, f)
	}
	return &Result{Figures: figs}, nil
}
