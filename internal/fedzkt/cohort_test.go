package fedzkt

import (
	"context"
	"slices"
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
		if _, err := srv.Register(archs[i%len(archs)], nil); err != nil {
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
	pool := srvB.cohorts.cohorts[0].pool
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

// distillRound absorbs each participant's own replica state, as an upload
// that changes nothing, runs round's Distill and returns the devices whose
// replica moved, failing on a non-finite one.
func distillRound(t *testing.T, srv *Server, round int, participants ...int) map[int]bool {
	t.Helper()
	before := make([]nn.StateDict, srv.NumDevices())
	for id := range before {
		before[id], _ = srv.ReplicaState(id)
	}
	for _, id := range participants {
		if err := srv.Absorb(id, before[id]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Distill(context.Background(), round); err != nil {
		t.Fatal(err)
	}
	moved := map[int]bool{}
	for id := range before {
		after, _ := srv.ReplicaState(id)
		for name := range after {
			if !after[name].IsFinite() {
				t.Fatalf("device %d state %q became non-finite", id, name)
			}
			if tensor.MaxAbsDiff(before[id][name], after[name]) > 0 {
				moved[id] = true
			}
		}
	}
	return moved
}

// TestSampledDistillMovesAllReplicas: sampled transfer-back distils into
// the round's participants — every one of them when DistillIters × T
// covers them, whatever their architectures — and into no one else: a
// non-participant's replica would be overwritten by its next upload before
// anyone downloaded it. A round that absorbed nothing moves no replica.
func TestSampledDistillMovesAllReplicas(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 4
	cfg.TeachersPerIter = 2
	srv := registerN(t, cfg, 6, "mlp", "lenet-s")
	participants := []int{1, 2, 4} // 4 × 2 window slots ≥ 3
	moved := distillRound(t, srv, 1, participants...)
	for id := 0; id < 6; id++ {
		if want := slices.Contains(participants, id); moved[id] != want {
			t.Errorf("device %d: replica moved %v, participant %v", id, moved[id], want)
		}
	}
	for it := 0; it < cfg.DistillIters; it++ {
		for _, id := range srv.transferBackIDs(1, it, 2, participants) {
			if !slices.Contains(participants, id) {
				t.Errorf("iteration %d's window holds non-participant %d", it, id)
			}
		}
	}
	if moved := distillRound(t, srv, 2); len(moved) != 0 {
		t.Errorf("a round that absorbed nothing moved replicas %v", moved)
	}
}

// TestTransferBackRotationAdvancesAcrossRounds: when one round's
// DistillIters × T budget is smaller than the participants, the window
// keeps advancing across rounds — a rotation that restarted at the first
// participant every round would starve the others of knowledge transfer
// for as long as the same devices take part.
func TestTransferBackRotationAdvancesAcrossRounds(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	cfg.TeachersPerIter = 2 // 2×2 = 4 transfer slots per round, 6 participants
	srv := registerN(t, cfg, 8, "mlp")
	participants := []int{0, 1, 3, 4, 6, 7}

	round1 := distillRound(t, srv, 1, participants...)
	if len(round1) != 4 {
		t.Fatalf("round 1's 4-slot windows moved %d replicas, want 4", len(round1))
	}
	round2 := distillRound(t, srv, 2, participants...)
	for _, moved := range []map[int]bool{round1, round2} {
		for id := range moved {
			if !slices.Contains(participants, id) {
				t.Fatalf("non-participant %d's replica moved", id)
			}
		}
	}
	for _, id := range participants {
		if !round1[id] && !round2[id] {
			t.Fatalf("participant %d untouched after 2 rounds of a full rotation cycle: rotation restarted", id)
		}
	}
}

func TestRegisterErrors(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Initial state from a different architecture must be rejected.
	other := model.MustBuild("cnn", tinyShape(), 4, tensor.NewRand(3))
	if _, err := srv.Register("mlp", nn.CaptureState(other)); err == nil {
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
