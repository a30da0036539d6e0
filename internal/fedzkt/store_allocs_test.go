package fedzkt

import "testing"

// TestCheckoutAllocsCeiling pins the per-checkout allocation budget on
// the spill store's hot path (every member resident): a regression that
// starts copying or re-encoding buffers per checkout shows up here long
// before it shows up in wall time.
func TestCheckoutAllocsCeiling(t *testing.T) {
	cfg := tinyConfig()
	cfg.TeachersPerIter = 8
	cfg.ReplicaStore = ReplicaStoreSpill
	cfg.HotSet = 16
	cfg.SpillDir = t.TempDir()
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 16; i++ {
		if _, err := srv.Register("mlp", nil); err != nil {
			t.Fatal(err)
		}
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Warm the hot set and the pool.
	leases := srv.cohorts.checkout(ids, false, false)
	if err := srv.cohorts.release(leases); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		l := srv.cohorts.checkout(ids, false, false)
		_ = srv.cohorts.release(l)
	})
	// Steady state measures ~19 objects per member (lease, decode views,
	// pool bookkeeping); the ceiling is ~30/member so only structural
	// regressions — per-checkout buffer copies, re-encodes — trip it.
	const ceiling = 240
	if allocs > ceiling {
		t.Fatalf("hot checkout/release of 8 members allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
