package fedzkt

import (
	"bytes"
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
	for _, i := range d.Data.Idx {
		holds[ds.TrainY[i]] = true
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
	x, y := ds.GatherTestIn(tensor.NewArena(), idx)
	d.Model.SetTraining(false)
	defer d.Model.SetTraining(true)
	return ag.Accuracy(d.Model.Forward(ag.Const(x)).Value(), y)
}

// TestSampledDownloadsCarryTransferBack: in sampled mode a device
// downloads what the server distilled into its replica, not the upload it
// just sent. With DistillIters × T covering a round's participants every
// download must differ from the upload it answers; the floor is 90 %. A
// transfer-back window rotating over the whole federation left 17 of these
// 24 downloads byte for byte the upload they answered, and 711 of 728 on a
// seed-42 fleet1k_sync run.
func TestSampledDownloadsCarryTransferBack(t *testing.T) {
	co := toyFleet(t, 6, func(c *Config) { resident(c); c.SampleK = 4 }) // 2 iterations × 2 teachers
	ft := tap(co)
	uploads := make(map[int][]byte)
	ft.uploaded = func(u Upload) { uploads[u.ID] = uploadedBytes(t, co, u) }
	same, downloads := 0, 0
	ft.delivering = func(_, id int, p Payload) {
		if len(uploads[id]) == 0 {
			t.Fatalf("device %d downloads without an upload to compare", id)
		}
		downloads++
		if bytes.Equal(p.Enc, uploads[id]) {
			same++
		}
	}
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d downloads are the upload they answer", same, downloads)
	if downloads == 0 || 10*(downloads-same) < 9*downloads {
		t.Fatalf("%d of %d downloads are the upload they answer, want under 10 %%", same, downloads)
	}
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
