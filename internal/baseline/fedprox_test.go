package baseline

import (
	"context"
	"testing"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

func TestFedProxValidation(t *testing.T) {
	ds := tinyDataset(40, data.FamilyDigits)
	shards := partition.IID(ds.NumTrain(), 2, tensor.NewRand(41))
	if _, err := NewFedProx(FedProxConfig{Mu: -1}, ds, shards); err == nil {
		t.Fatal("want error for negative mu")
	}
}

func TestFedProxRunsAndLearns(t *testing.T) {
	ds := tinyDataset(42, data.FamilyDigits)
	shards := partition.Dirichlet(ds.TrainY, ds.Classes, 3, 0.3, tensor.NewRand(43))
	fp, err := NewFedProx(FedProxConfig{
		FedAvgConfig: FedAvgConfig{Rounds: 4, LocalEpochs: 3, BatchSize: 16, LR: 0.05, Arch: "cnn", Seed: 44},
		Mu:           0.1,
	}, ds, shards)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := fp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if acc := hist.FinalGlobalAcc(); acc < 0.4 {
		t.Fatalf("FedProx global accuracy %.3f; want > 0.4", acc)
	}
}

// TestFedProxRestrainsLocalDrift: with a large μ, local models stay closer
// to the broadcast global parameters than plain FedAvg's do.
func TestFedProxRestrainsLocalDrift(t *testing.T) {
	ds := tinyDataset(45, data.FamilyDigits)
	shards := partition.Dirichlet(ds.TrainY, ds.Classes, 3, 0.3, tensor.NewRand(46))

	drift := func(mu float64) float64 {
		fa, err := NewFedAvg(FedAvgConfig{Rounds: 1, LocalEpochs: 4, BatchSize: 16, LR: 0.05, Arch: "mlp", Seed: 47}, ds, shards)
		if err != nil {
			t.Fatal(err)
		}
		fa.proxMu = mu
		globalBefore := nn.CaptureState(fa.Global()).Clone()
		if _, err := fa.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Distance between the round-1 broadcast (globalBefore) and the
		// final device states.
		total := 0.0
		for _, d := range fa.devices {
			for name, w := range nn.CaptureState(d.Model) {
				diff := tensor.New(w.Shape()...)
				tensor.SubInto(diff, w, globalBefore[name])
				total += tensor.Norm2(diff)
			}
		}
		return total
	}
	plain, prox := drift(0), drift(10)
	if prox >= plain {
		t.Fatalf("FedProx term did not restrain drift: plain=%.4f prox=%.4f", plain, prox)
	}
}
