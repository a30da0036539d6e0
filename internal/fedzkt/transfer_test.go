package fedzkt

import (
	"context"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// unseenClassAccuracy measures a device model's accuracy restricted to
// test samples of classes absent from its private shard — nonzero values
// can only come from transferred knowledge.
func unseenClassAccuracy(d *fed.Device) float64 {
	ds := d.Data.DS
	holds := make([]bool, ds.Classes)
	for cl, n := range d.Data.LabelCounts() {
		if n > 0 {
			holds[cl] = true
		}
	}
	var idx []int
	for i, y := range ds.TestY {
		if !holds[y] {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0
	}
	x, y := ds.GatherTestIn(nil, idx)
	d.Model.SetTraining(false)
	defer d.Model.SetTraining(true)
	return ag.Accuracy(d.Model.Forward(ag.Const(x)).Value(), y)
}

// TestZeroShotTransferToUnseenClasses is the core scientific invariant of
// the paper: under quantity-based label skew (each device holds only 2 of
// 4 classes), a device trained in isolation can never classify its unseen
// classes, but after FedZKT rounds the distilled parameters must carry
// knowledge of them — accuracy on unseen classes well above the ~0 of
// isolated training.
func TestZeroShotTransferToUnseenClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("zero-shot transfer needs full-length rounds; skipped in -short mode")
	}
	ds := tinyDataset(77)
	shards := partition.QuantitySkew(ds.TrainY, ds.Classes, 4, 2, tensor.NewRand(78))
	cfg := tinyConfig()
	cfg.Rounds = 5
	cfg.DistillIters = 16
	cfg.ProxMu = 0.1
	co, err := New(cfg, ds, []string{"cnn", "mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: the same devices trained on their own shards only.
	isolated, err := New(cfg, ds, []string{"cnn", "mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	local := fed.LocalConfig{Epochs: cfg.Rounds * cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.DeviceLR, Momentum: cfg.Momentum}
	isoUnseen := 0.0
	for id := range isolated.Devices() {
		withDevice(t, isolated, id, func(d *fed.Device) {
			if _, err := d.LocalUpdate(local, tensor.NewRand(79)); err != nil {
				t.Fatal(err)
			}
			isoUnseen += unseenClassAccuracy(d)
		})
	}
	isoUnseen /= float64(len(isolated.Devices()))

	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fedUnseen := 0.0
	for id := range co.Devices() {
		withDevice(t, co, id, func(d *fed.Device) { fedUnseen += unseenClassAccuracy(d) })
	}
	fedUnseen /= float64(len(co.Devices()))

	t.Logf("unseen-class accuracy: isolated=%.3f fedzkt=%.3f", isoUnseen, fedUnseen)
	// Isolated training on 2 of 4 classes essentially never predicts the
	// other two; FedZKT's distilled download must.
	if fedUnseen < isoUnseen+0.15 {
		t.Fatalf("no evidence of zero-shot transfer: isolated=%.3f fedzkt=%.3f", isoUnseen, fedUnseen)
	}
}
