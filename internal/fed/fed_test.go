package fed

import (
	"testing"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// tinyDataset builds a fast 4-class 8×8 dataset for runtime tests.
func tinyDataset(seed uint64) *data.Dataset {
	return data.MustMake(data.Config{
		Name: "tiny", Family: data.FamilyDigits, Classes: 4,
		C: 1, H: 8, W: 8,
		TrainPerClass: 30, TestPerClass: 10,
		Seed: seed,
	})
}

func tinyDevice(t *testing.T, ds *data.Dataset, idx []int, seed uint64) *Device {
	t.Helper()
	m, err := model.Build("lenet-s", model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewDevice(0, "lenet-s", m, data.NewSubset(ds, idx))
}

func allTrain(ds *data.Dataset) []int {
	idx := make([]int, ds.NumTrain())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestLocalUpdateLearns(t *testing.T) {
	ds := tinyDataset(1)
	dev := tinyDevice(t, ds, allTrain(ds), 2)
	before := Evaluate(dev.Model, ds, 32)
	cfg := LocalConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Momentum: 0.9}
	loss, err := dev.LocalUpdate(cfg, tensor.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	after := Evaluate(dev.Model, ds, 32)
	if after < before+0.2 || after < 0.5 {
		t.Fatalf("local update did not learn: before=%.3f after=%.3f (loss %.3f)", before, after, loss)
	}
}

func TestLocalUpdateValidation(t *testing.T) {
	ds := tinyDataset(4)
	dev := tinyDevice(t, ds, allTrain(ds), 5)
	if _, err := dev.LocalUpdate(LocalConfig{}, tensor.NewRand(1)); err == nil {
		t.Fatal("want error for zero config")
	}
	if _, err := dev.LocalUpdate(LocalConfig{Epochs: 1, BatchSize: 0, LR: 0.1}, tensor.NewRand(1)); err == nil {
		t.Fatal("want error for zero batch size")
	}
}

func TestProximalTermRestrainsDrift(t *testing.T) {
	ds := tinyDataset(6)
	mkDev := func() *Device {
		d := tinyDevice(t, ds, allTrain(ds), 7)
		d.SnapshotReceived()
		return d
	}
	drift := func(d *Device) float64 {
		total := 0.0
		cur := nn.CaptureState(d.Model)
		for name, w := range cur {
			prev := d.received[name]
			diff := tensor.New(w.Shape()...)
			tensor.SubInto(diff, w, prev)
			total += tensor.Norm2(diff)
		}
		return total
	}
	free := mkDev()
	if _, err := free.LocalUpdate(LocalConfig{Epochs: 4, BatchSize: 16, LR: 0.05, Momentum: 0.9}, tensor.NewRand(8)); err != nil {
		t.Fatal(err)
	}
	prox := mkDev()
	if _, err := prox.LocalUpdate(LocalConfig{Epochs: 4, BatchSize: 16, LR: 0.05, Momentum: 0.9, ProxMu: 5}, tensor.NewRand(8)); err != nil {
		t.Fatal(err)
	}
	df, dp := drift(free), drift(prox)
	if dp >= df {
		t.Fatalf("proximal term did not restrain drift: free=%.4f prox=%.4f", df, dp)
	}
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	ds := tinyDataset(9)
	a := tinyDevice(t, ds, allTrain(ds), 10)
	b := tinyDevice(t, ds, allTrain(ds), 20)
	if _, err := a.LocalUpdate(LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.05}, tensor.NewRand(11)); err != nil {
		t.Fatal(err)
	}
	if err := b.Download(a.Upload()); err != nil {
		t.Fatal(err)
	}
	sa, sb := nn.CaptureState(a.Model), nn.CaptureState(b.Model)
	for name := range sa {
		if tensor.MaxAbsDiff(sa[name], sb[name]) != 0 {
			t.Fatalf("state %q differs after download", name)
		}
	}
	if b.received != nil || !b.anchorDue {
		t.Fatal("download must arm the proximal anchor without capturing it")
	}
}

func TestHistoryHelpers(t *testing.T) {
	h := History{
		{Round: 1, GlobalAcc: 0.3, MeanDeviceAcc: 0.2, BytesUp: 10, BytesDown: 5},
		{Round: 2, GlobalAcc: 0.5, MeanDeviceAcc: 0.4, BytesUp: 10, BytesDown: 5},
	}
	if h.FinalGlobalAcc() != 0.5 || h.FinalMeanDeviceAcc() != 0.4 {
		t.Fatal("final accessors wrong")
	}
	if s := h.GlobalAccSeries(); len(s) != 2 || s[0] != 0.3 {
		t.Fatal("series wrong")
	}
	up, down := h.TotalBytes()
	if up != 20 || down != 10 {
		t.Fatalf("TotalBytes = %d/%d", up, down)
	}
	var empty History
	if empty.FinalGlobalAcc() != 0 || empty.FinalMeanDeviceAcc() != 0 {
		t.Fatal("empty history must return zeros")
	}
}

func TestEvaluateAllAndMean(t *testing.T) {
	ds := tinyDataset(30)
	shards := partition.IID(ds.NumTrain(), 2, tensor.NewRand(31))
	devs := []*Device{
		tinyDevice(t, ds, shards[0], 32),
		tinyDevice(t, ds, shards[1], 33),
	}
	accs := EvaluateAllParallel(devs, ds, 16, 0)
	if len(accs) != 2 {
		t.Fatalf("EvaluateAllParallel returned %d accuracies", len(accs))
	}
	for _, a := range accs {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %v outside [0,1]", a)
		}
	}
	if m := Mean(accs); m != (accs[0]+accs[1])/2 {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) must be 0")
	}
}

// sameState fails unless a and b hold bitwise-identical values.
func sameState(t *testing.T, what string, a, b nn.StateDict) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d tensors vs %d", what, len(a), len(b))
	}
	for name := range a {
		if tensor.MaxAbsDiff(a[name], b[name]) != 0 {
			t.Fatalf("%s: %q differs", what, name)
		}
	}
}

// TestDownloadPayloadAllOrNothing: a payload is validated whole before
// the first element is written, so a truncated, a wrong-layout and a
// duplicate-name container each leave the model and the proximal anchor
// exactly as they were; a good payload then decodes straight into the
// model, to the same values the dense download path installs, and the
// next proximal update refreshes the anchor in place.
func TestDownloadPayloadAllOrNothing(t *testing.T) {
	ds := tinyDataset(12)
	src := tinyDevice(t, ds, allTrain(ds), 30)
	dev := tinyDevice(t, ds, allTrain(ds), 31)
	dev.SnapshotReceived()
	int8c, err := codec.Get(codec.Int8)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := src.UploadPayload(int8c)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong layout: another architecture's (perfectly valid) container.
	other, err := model.Build("mlp", model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(32))
	if err != nil {
		t.Fatal(err)
	}
	wrongLayout, err := codec.Encode(int8c, nn.CaptureState(other))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate name: the good container's tensors, the first one twice —
	// every header and payload is well-formed and the count is honest.
	layout, err := codec.Layout(good)
	if err != nil {
		t.Fatal(err)
	}
	first := nn.StateDict{layout[0].Name: nn.CaptureState(src.Model)[layout[0].Name]}
	one, err := codec.Encode(int8c, first)
	if err != nil {
		t.Fatal(err)
	}
	duplicate := append([]byte(nil), good[:5]...)
	duplicate = append(duplicate, byte(len(layout)+1)) // tensor count, one byte while < 128
	duplicate = append(duplicate, one[6:]...)
	duplicate = append(duplicate, good[6:]...)

	model0 := nn.CaptureState(dev.Model).Clone()
	anchor0 := dev.received.Clone()
	for name, b := range map[string][]byte{
		"truncated":    good[:len(good)-3],
		"wrong layout": wrongLayout,
		"duplicate":    duplicate,
	} {
		if err := dev.DownloadPayload(b); err == nil {
			t.Fatalf("%s payload: want an error", name)
		}
		sameState(t, name+" payload, model", nn.CaptureState(dev.Model), model0)
		sameState(t, name+" payload, anchor", dev.received, anchor0)
		if dev.anchorDue {
			t.Fatalf("%s payload armed the anchor", name)
		}
	}

	anchorTensors := dev.received
	if err := dev.DownloadPayload(good); err != nil {
		t.Fatal(err)
	}
	want, err := codec.Decode(good)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, "good payload, model", nn.CaptureState(dev.Model), want)
	sameState(t, "good payload, anchor before the next update", dev.received, anchor0)
	if _, err := dev.LocalUpdate(LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.05, ProxMu: 0.1}, tensor.NewRand(33)); err != nil {
		t.Fatal(err)
	}
	sameState(t, "good payload, anchor", dev.received, want)
	for name, tt := range dev.received {
		if tt != anchorTensors[name] {
			t.Fatalf("anchor tensor %q was reallocated instead of overwritten", name)
		}
	}
}
