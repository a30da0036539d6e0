package fedzkt

import (
	"bytes"
	"context"
	"testing"

	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// registerN registers n devices cycling through archs, returning the
// server.
func registerN(t *testing.T, cfg Config, n int, archs ...string) *Server {
	t.Helper()
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := srv.RegisterSized(archs[i%len(archs)], nil, 10+i); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

func TestCohortGroupingByArchitecture(t *testing.T) {
	srv := registerN(t, tinyConfig(), 6, "mlp", "lenet-s")
	if got := srv.NumDevices(); got != 6 {
		t.Fatalf("NumDevices=%d, want 6", got)
	}
	if got := srv.NumCohorts(); got != 2 {
		t.Fatalf("NumCohorts=%d, want 2 (mlp + lenet-s)", got)
	}
	for id, want := range []string{"mlp", "lenet-s", "mlp", "lenet-s", "mlp", "lenet-s"} {
		ref, err := srv.cohorts.ref(id)
		if err != nil {
			t.Fatal(err)
		}
		if ref.cohort.arch != want {
			t.Fatalf("device %d arch %q, want %q", id, ref.cohort.arch, want)
		}
	}
	if _, err := srv.cohorts.ref(6); err == nil {
		t.Fatal("want error for out-of-range device id")
	}
}

// TestCohortPoolBoundedInSampledMode pins the memory property the cohort
// refactor exists for: with TeachersPerIter = T, distillation over many
// same-architecture devices retains at most T live modules per cohort
// rather than one per device.
func TestCohortPoolBoundedInSampledMode(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	cfg.TeachersPerIter = 2
	srv := registerN(t, cfg, 10, "mlp")
	if got := srv.LiveReplicas(); got != 0 {
		t.Fatalf("registration retained %d live modules, want 0", got)
	}
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := srv.LiveReplicas(); got > cfg.TeachersPerIter {
		t.Fatalf("sampled distillation retained %d live modules, want ≤ %d", got, cfg.TeachersPerIter)
	}
}

// TestCohortPoolRetention: exact mode keeps the full cohort pooled between
// rounds (the legacy memory/CPU profile, no rebuilds); sampled mode trims
// a pool that a wider checkout grew back to TeachersPerIter.
func TestCohortPoolRetention(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	srv := registerN(t, cfg, 4, "mlp")
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := srv.LiveReplicas(); got != 4 {
		t.Fatalf("exact mode retained %d live modules, want the full cohort (4)", got)
	}

	bounded := cfg
	bounded.TeachersPerIter = 1
	srvB := registerN(t, bounded, 4, "mlp")
	// A four-wide evaluation chunk checks out four members at once,
	// growing the pool past the bound until the release trims it.
	srvB.EvaluateReplicaSubset(tinyDataset(1), 16, 4, srvB.cohorts.allIDs())
	if got := srvB.LiveReplicas(); got != 1 {
		t.Fatalf("TeachersPerIter=1 retained %d live modules, want 1", got)
	}
	// The trim must actually release the modules: entries beyond the cap
	// must be nil in the backing array, not merely sliced out of view
	// (which would keep them reachable and defeat the memory bound).
	pool := srvB.cohorts.shards[0].cohorts[0].pool
	for _, slot := range pool[len(pool):cap(pool)] {
		if slot != nil {
			t.Fatal("trimmed pool entry still reachable through the backing array")
		}
	}
}

// TestCohortStateIsolation: distilling through shared pooled modules must
// keep every device's replica parameters distinct — a swap bug that leaked
// one member's update into another would show up as identical states.
func TestCohortStateIsolation(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 3
	srv := registerN(t, cfg, 3, "mlp")

	before := make([]nn.StateDict, 3)
	for id := range before {
		sd, err := srv.ReplicaState(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = sd
	}
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	after := make([]nn.StateDict, 3)
	for id := range after {
		sd, err := srv.ReplicaState(id)
		if err != nil {
			t.Fatal(err)
		}
		after[id] = sd
	}
	for id := range after {
		moved := false
		for name := range after[id] {
			if tensor.MaxAbsDiff(before[id][name], after[id][name]) > 0 {
				moved = true
			}
		}
		if !moved {
			t.Fatalf("device %d replica did not move during distillation", id)
		}
	}
	// Same-architecture members start from different seeds and take
	// different distillation paths; bit-identical states mean a swap leak.
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			same := true
			for name := range after[a] {
				if tensor.MaxAbsDiff(after[a][name], after[b][name]) != 0 {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("devices %d and %d hold bit-identical replicas after distillation", a, b)
			}
		}
	}
}

// TestSampledDistillMovesAllReplicas: the rotating transfer-back window
// must reach every device across the iterations of a round when
// DistillIters × T ≥ devices.
func TestSampledDistillMovesAllReplicas(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 4
	cfg.TeachersPerIter = 2
	srv := registerN(t, cfg, 6, "mlp", "lenet-s")
	before := make([]nn.StateDict, 6)
	for id := range before {
		before[id], _ = srv.ReplicaState(id)
	}
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	for id := range before {
		after, _ := srv.ReplicaState(id)
		moved := false
		for name := range after {
			if !after[name].IsFinite() {
				t.Fatalf("device %d state %q became non-finite", id, name)
			}
			if tensor.MaxAbsDiff(before[id][name], after[name]) > 0 {
				moved = true
			}
		}
		if !moved {
			t.Fatalf("rotating transfer-back window never reached device %d", id)
		}
	}
}

// TestTransferBackRotationAdvancesAcrossRounds: when one round's
// DistillIters × T budget is smaller than the federation, the rotating
// transfer-back window must keep advancing across rounds — a rotation
// that restarts at device 0 every round would starve the tail of the
// federation of knowledge transfer forever.
func TestTransferBackRotationAdvancesAcrossRounds(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	cfg.TeachersPerIter = 2 // 2×2 = 4 transfer slots per round, 8 devices
	srv := registerN(t, cfg, 8, "mlp")

	snapshot := func() []nn.StateDict {
		out := make([]nn.StateDict, 8)
		for id := range out {
			out[id], _ = srv.ReplicaState(id)
		}
		return out
	}
	movedSince := func(before []nn.StateDict) map[int]bool {
		moved := map[int]bool{}
		for id := range before {
			after, _ := srv.ReplicaState(id)
			for name := range after {
				if tensor.MaxAbsDiff(before[id][name], after[name]) > 0 {
					moved[id] = true
					break
				}
			}
		}
		return moved
	}

	before := snapshot()
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	round1 := movedSince(before)
	if len(round1) == 8 {
		t.Fatal("round 1's 4-slot window cannot have reached all 8 devices")
	}

	before = snapshot()
	if _, err := srv.Distill(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	round2 := movedSince(before)
	for id := range round2 {
		if round1[id] {
			t.Fatalf("device %d transferred in both rounds while others starved: rotation restarted", id)
		}
	}
	for id := 0; id < 8; id++ {
		if !round1[id] && !round2[id] {
			t.Fatalf("device %d untouched after 2 rounds of a full rotation cycle", id)
		}
	}
}

func TestRegisterSizedErrors(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterSized("mlp", nil, -1); err == nil {
		t.Fatal("want error for negative data size")
	}
	// Initial state from a different architecture must be rejected.
	other := model.MustBuild("cnn", tinyShape(), 4, tensor.NewRand(3))
	if _, err := srv.RegisterSized("mlp", nn.CaptureState(other), 5); err == nil {
		t.Fatal("want error for mismatched initial state dict")
	}
	// A failed registration must not leave a half-registered device.
	if got := srv.NumDevices(); got != 0 {
		t.Fatalf("failed registrations left %d devices", got)
	}
}

func TestServerConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative TeachersPerIter", func(c *Config) { c.TeachersPerIter = -1 }},
	} {
		cfg := tinyConfig()
		tc.mutate(&cfg)
		if _, err := NewServer(cfg, tinyShape(), 4); err == nil {
			t.Fatalf("%s: want configuration error", tc.name)
		}
	}
}

// TestCheckpointPreservesWeights: the data size a device registered with
// survives a checkpoint round trip.
func TestCheckpointPreservesWeights(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	srv := registerN(t, cfg, 4, "mlp", "lenet-s")
	blob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if want, got := len(srv.cohorts.devices), len(restored.cohorts.devices); got != want {
		t.Fatalf("restored %d devices, want %d", got, want)
	}
	for i, d := range srv.cohorts.devices {
		if got, want := restored.cohorts.devices[i].member.weight, d.member.weight; got != want {
			t.Fatalf("device %d weight %d, want %d", i, got, want)
		}
	}
}
