package fedzkt

import (
	"context"
	"testing"

	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

func tinyShape() model.Shape { return model.Shape{C: 1, H: 8, W: 8} }

func TestServerRegisterAndReplicaState(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	dev := model.MustBuild("mlp", tinyShape(), 4, tensor.NewRand(1))
	id, err := srv.Register("mlp", nn.CaptureState(dev))
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || srv.NumDevices() != 1 {
		t.Fatalf("id=%d, devices=%d", id, srv.NumDevices())
	}
	// The replica must hold exactly the registered state.
	sd, err := srv.ReplicaState(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range nn.CaptureState(dev) {
		if tensor.MaxAbsDiff(sd[name], want) != 0 {
			t.Fatalf("replica state %q differs from registration", name)
		}
	}
	// The slot is a copy of the registered state, not the device's tensors.
	name := sd.Names()[0]
	nn.CaptureState(dev)[name].Data()[0] += 100
	if again, _ := srv.ReplicaState(0); again[name].Data()[0] != sd[name].Data()[0] {
		t.Fatal("the replica slot aliases the registrant's tensors")
	}
	// And it must be a deep copy.
	sd[name].Data()[0] += 100
	sd2, _ := srv.ReplicaState(0)
	if sd2[name].Data()[0] == sd[name].Data()[0] {
		t.Fatal("ReplicaState must deep-copy")
	}
}

func TestServerRegisterUnknownArch(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("bogus", nil); err == nil {
		t.Fatal("want error for unknown architecture")
	}
}

func TestServerAbsorbErrors(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Absorb(0, nil); err == nil {
		t.Fatal("want error for unknown device id")
	}
	if err := srv.Absorb(-1, nil); err == nil {
		t.Fatal("want error for negative device id")
	}
	if _, err := srv.Register("mlp", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Absorb(1, nil); err == nil {
		t.Fatal("want error for out-of-range device id")
	}
	// Wrong-architecture upload must fail loudly.
	other := model.MustBuild("cnn", tinyShape(), 4, tensor.NewRand(2))
	if err := srv.Absorb(0, nn.CaptureState(other)); err == nil {
		t.Fatal("want error for mismatched state dict")
	}
	// A renamed key with the right sizes must fail too, and the failed
	// absorb must not corrupt the stored replica.
	before, _ := srv.ReplicaState(0)
	bad := before.Clone()
	name := bad.Names()[0]
	bad["not-"+name] = bad[name]
	delete(bad, name)
	if err := srv.Absorb(0, bad); err == nil {
		t.Fatal("want error for renamed state-dict key")
	}
	after, _ := srv.ReplicaState(0)
	for n, want := range before {
		if tensor.MaxAbsDiff(after[n], want) != 0 {
			t.Fatalf("failed absorb mutated replica state %q", n)
		}
	}
	if _, err := srv.ReplicaState(5); err == nil {
		t.Fatal("want error for out-of-range replica")
	}
	if _, err := srv.ReplicaState(-1); err == nil {
		t.Fatal("want error for negative replica id")
	}
}

// TestServerSampledDistillKeepsEverythingFinite exercises the sampled
// teacher path at the server level.
func TestServerSampledDistillKeepsEverythingFinite(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 4
	cfg.TeachersPerIter = 2
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"mlp", "lenet-s", "mlp"} {
		if _, err := srv.Register(arch, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < srv.NumDevices(); id++ {
		sd, err := srv.ReplicaState(id)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range sd {
			if !v.IsFinite() {
				t.Fatalf("device %d state %q non-finite", id, name)
			}
		}
	}
	for _, p := range srv.Global().Params() {
		if !p.Value().IsFinite() {
			t.Fatal("global parameters non-finite")
		}
	}
}

func TestServerDistillRequiresDevices(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Distill(context.Background(), 1); err == nil {
		t.Fatal("want error when no devices registered")
	}
}

func TestServerDistillMovesReplicasAndKeepsThemFinite(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 4
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"mlp", "lenet-s"} {
		if _, err := srv.Register(arch, nil); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := srv.ReplicaState(0)
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	after, _ := srv.ReplicaState(0)
	moved := false
	for name := range before {
		if !after[name].IsFinite() {
			t.Fatalf("state %q became non-finite during distillation", name)
		}
		if tensor.MaxAbsDiff(before[name], after[name]) > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("transfer-back phase did not update the replica")
	}
	// The generator and global model must also stay finite.
	for _, p := range srv.Generator().Params() {
		if !p.Value().IsFinite() {
			t.Fatal("generator parameters non-finite after distillation")
		}
	}
	for _, p := range srv.Global().Params() {
		if !p.Value().IsFinite() {
			t.Fatal("global parameters non-finite after distillation")
		}
	}
}

func TestServerConfigDefaulted(t *testing.T) {
	srv, err := NewServer(Config{}, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Config().Rounds == 0 || srv.Config().Loss != LossSL {
		t.Fatalf("server config not defaulted: %+v", srv.Config())
	}
}
