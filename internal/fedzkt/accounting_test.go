package fedzkt

import (
	"context"
	"testing"

	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// accountingRun runs a small federation on the spill store with failure
// injection and checks that every per-round counter is a per-round
// quantity — reset (or re-derived as a delta) at each round boundary —
// rather than a cumulative total leaking across rounds. The regression it
// guards: finishRoundStats forgetting to advance prevStore (every round
// would then report the store's lifetime counters) or Absorbed/Injected
// being accumulated instead of assigned.
func accountingRun(t *testing.T, depth int) {
	t.Helper()
	ds := tinyDataset(81)
	shards := partition.IID(ds.NumTrain(), 6, tensor.NewRand(82))
	cfg := tinyConfig()
	cfg.Rounds = 4
	cfg.DistillIters = 4
	cfg.FailureRate = 0.3
	cfg.TeachersPerIter = 2
	cfg.ReplicaStore = ReplicaStoreSpill
	cfg.HotSet = 2
	cfg.PipelineDepth = depth
	co, err := New(cfg, ds, []string{"mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != cfg.Rounds {
		t.Fatalf("history length %d, want %d", len(hist), cfg.Rounds)
	}

	var sum fed.RoundMetrics
	sawInjected := false
	for _, m := range hist {
		completed := len(m.Active) - len(m.Dropped) - len(m.Injected)
		// Absorbed is assigned from this round's completions, never
		// carried over: with injected failures every round, a cumulative
		// Absorbed would exceed the per-round completion count.
		if m.Absorbed != completed {
			t.Fatalf("round %d: Absorbed=%d, want %d (sampled %d - dropped %d - injected %d)",
				m.Round, m.Absorbed, completed, len(m.Active), len(m.Dropped), len(m.Injected))
		}
		// LateAbsorbed and DroppedUploads belong to the transport quorum
		// path; the in-process engines must leave them zero, not inherit
		// stale values.
		if m.LateAbsorbed != 0 || m.DroppedUploads != 0 {
			t.Fatalf("round %d: LateAbsorbed=%d DroppedUploads=%d, want 0/0 in the simulator",
				m.Round, m.LateAbsorbed, m.DroppedUploads)
		}
		if len(m.Injected) > 0 {
			sawInjected = true
		}
		sum.StoreHits += m.StoreHits
		sum.StoreMisses += m.StoreMisses
		sum.SpillReadBytes += m.SpillReadBytes
		sum.SpillWriteBytes += m.SpillWriteBytes
		sum.Absorbed += m.Absorbed
	}
	if !sawInjected {
		t.Fatal("failure injection produced no injected devices; the carry-over assertions never bit")
	}

	// The per-round store figures are deltas of the cumulative store
	// counters at round boundaries, so they must sum back to the final
	// cumulative stats. If a round ever re-reported the running totals,
	// these sums would overshoot.
	st := co.Server().ReplicaStoreStats()
	if sum.StoreHits != st.Hits || sum.StoreMisses != st.Misses {
		t.Fatalf("per-round hit/miss sums %d/%d != cumulative store stats %d/%d",
			sum.StoreHits, sum.StoreMisses, st.Hits, st.Misses)
	}
	if sum.SpillReadBytes != st.SpillReadBytes || sum.SpillWriteBytes != st.SpillWriteBytes {
		t.Fatalf("per-round spill byte sums %d/%d != cumulative %d/%d",
			sum.SpillReadBytes, sum.SpillWriteBytes, st.SpillReadBytes, st.SpillWriteBytes)
	}
	if sum.StoreHits+sum.StoreMisses == 0 {
		t.Fatal("spill store saw no traffic; the delta assertions never bit")
	}

	// Replica faults are drained at each round boundary — a healthy run
	// must report none, and certainly must not echo one round's faults
	// into the next.
	for _, m := range hist {
		if len(m.ReplicaFaults) != 0 {
			t.Fatalf("round %d: unexpected replica faults %v in a healthy run", m.Round, m.ReplicaFaults)
		}
	}
}

// TestRoundAccountingResets pins the per-round reset contract on both
// engines.
func TestRoundAccountingResets(t *testing.T) {
	t.Run("sync", func(t *testing.T) { accountingRun(t, 0) })
	t.Run("pipelined", func(t *testing.T) { accountingRun(t, 2) })
}
