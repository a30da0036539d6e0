package fedzkt_test

import (
	"context"
	"testing"

	"github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/data"
)

// TestFacadeEndToEnd exercises the public API surface exactly as the
// README shows it: build data, partition, federate, evaluate — the devices
// at rest after the run read what the last round recorded.
func TestFacadeEndToEnd(t *testing.T) {
	ds := data.MustMake(fedzkt.DataConfig{
		Name: "facade", Family: data.FamilyDigits, Classes: 4,
		C: 1, H: 8, W: 8, TrainPerClass: 20, TestPerClass: 8, Seed: 3,
	})
	shards := fedzkt.PartitionIID(ds.NumTrain(), 3, 3)
	co, err := fedzkt.New(fedzkt.Config{
		Rounds: 2, LocalEpochs: 1, DistillIters: 4, StudentSteps: 1,
		DistillBatch: 8, BatchSize: 8, ZDim: 8,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Momentum: 0.9, Seed: 3,
	}, ds, []string{"mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history len %d", len(hist))
	}
	accs, err := co.EvaluateDevices([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, acc := range accs {
		if acc < 0 || acc > 1 {
			t.Fatalf("device %d accuracy %v", i, acc)
		}
		if acc != hist[1].DeviceAcc[i] {
			t.Fatalf("device %d accuracy %v, the last round recorded %v", i, acc, hist[1].DeviceAcc[i])
		}
	}
}

func TestFacadePartitioners(t *testing.T) {
	labels := make([]int, 100)
	for i := range labels {
		labels[i] = i % 5
	}
	iid := fedzkt.PartitionIID(100, 4, 1)
	if len(iid) != 4 {
		t.Fatalf("iid shards: %d", len(iid))
	}
	qs := fedzkt.PartitionQuantitySkew(labels, 5, 4, 2, 1)
	if len(qs) != 4 {
		t.Fatalf("quantity shards: %d", len(qs))
	}
	dir := fedzkt.PartitionDirichlet(labels, 5, 4, 0.5, 1)
	if len(dir) != 4 {
		t.Fatalf("dirichlet shards: %d", len(dir))
	}
}

func TestFacadeZoosAndLosses(t *testing.T) {
	if len(fedzkt.SmallZoo()) != 5 || len(fedzkt.CIFARZoo()) != 5 {
		t.Fatal("zoos must expose five architectures each")
	}
	if len(fedzkt.Architectures()) < 8 {
		t.Fatal("architecture registry too small")
	}
	for _, s := range []string{"sl", "kl", "l1"} {
		if _, err := fedzkt.ParseLoss(s); err != nil {
			t.Fatalf("ParseLoss(%q): %v", s, err)
		}
	}
	if fedzkt.LossSL == fedzkt.LossKL {
		t.Fatal("loss kinds must be distinct")
	}
}

// TestFacadeDeviceScaleScheduler drives the scheduler knobs through the
// public Config: uniform-K partial participation, a bounded worker pool
// and failure injection, over more devices than any realistic core count.
func TestFacadeDeviceScaleScheduler(t *testing.T) {
	ds := data.MustMake(fedzkt.DataConfig{
		Name: "facade-scale", Family: data.FamilyDigits, Classes: 3,
		C: 1, H: 8, W: 8, TrainPerClass: 40, TestPerClass: 6, Seed: 17,
	})
	const devices = 60
	shards := fedzkt.PartitionIID(ds.NumTrain(), devices, 18)
	co, err := fedzkt.New(fedzkt.Config{
		Rounds: 1, LocalEpochs: 1, DistillIters: 2, StudentSteps: 1,
		DistillBatch: 8, BatchSize: 8, ZDim: 8,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Seed: 17,
		SampleK: 10, Workers: 4, FailureRate: 0.2,
	}, ds, []string{"mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := hist[0]
	if len(m.Active) != 10 {
		t.Fatalf("sampled %d devices, want 10", len(m.Active))
	}
	if got := len(m.Active) - len(m.Injected) - len(m.Dropped); got < 1 {
		t.Fatalf("no device completed the round: %+v", m)
	}
	if fp := hist.Fingerprint(); fp == "" {
		t.Fatal("empty history fingerprint")
	}
}

// TestFacadePipelinedEngine drives PipelineDepth through the public
// Config: a depth-2 run must finalise every round in order and keep the
// stall accounting visible on the facade's History alias.
func TestFacadePipelinedEngine(t *testing.T) {
	ds := data.MustMake(fedzkt.DataConfig{
		Name: "facade-pipe", Family: data.FamilyDigits, Classes: 3,
		C: 1, H: 8, W: 8, TrainPerClass: 30, TestPerClass: 6, Seed: 23,
	})
	const devices = 20
	shards := fedzkt.PartitionIID(ds.NumTrain(), devices, 24)
	co, err := fedzkt.New(fedzkt.Config{
		Rounds: 3, LocalEpochs: 1, DistillIters: 3, StudentSteps: 1,
		DistillBatch: 8, BatchSize: 8, ZDim: 8,
		DeviceLR: 0.05, ServerLR: 0.05, GenLR: 3e-4, Seed: 23,
		SampleK: 6, Workers: 4, PipelineDepth: 2, TeachersPerIter: 4,
	}, ds, []string{"mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history len %d, want 3", len(hist))
	}
	for i, m := range hist {
		if m.Round != i+1 {
			t.Fatalf("round %d at position %d", m.Round, i)
		}
	}
	if down, up := hist.TotalStalls(); down < 0 || up < 0 {
		t.Fatalf("negative stall accounting: %v %v", down, up)
	}
	if _, err := fedzkt.New(fedzkt.Config{PipelineDepth: -1}, ds, []string{"mlp"}, shards); err == nil {
		t.Fatal("want error for negative PipelineDepth")
	}
}
