package fedzkt

// Tests for the tiered replica store: byte-identity of spill runs against
// the in-memory reference,
// degradation on corrupt spill records, checkpointing through a
// populated spill tier, and the store-config validation surface.

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"sync"
	"testing"

	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// memoryRef caches the in-memory reference fingerprint of the golden
// configuration: every storage-layer arm in this file compares against
// the same run, so pay for it once.
var (
	memoryRefOnce sync.Once
	memoryRefFP   string
)

func memoryRef(t *testing.T) string {
	memoryRefOnce.Do(func() { memoryRefFP = goldenRun(t, nil) })
	if memoryRefFP == "" {
		t.Fatal("empty in-memory reference fingerprint")
	}
	return memoryRefFP
}

// TestSpillStoreFingerprintGolden pins the tier's central contract: the
// spill store is a pure storage-layer change, so an exact-mode golden
// run must be byte-identical to the in-memory reference at every worker
// count, even with a pathologically small hot set forcing constant
// eviction traffic.
func TestSpillStoreFingerprintGolden(t *testing.T) {
	ref := memoryRef(t)
	for _, workers := range []int{1, 3} {
		got := goldenRun(t, func(c *Config) {
			c.ReplicaStore = ReplicaStoreSpill
			c.HotSet = 2
			c.Workers = workers
		})
		if got != ref {
			t.Fatalf("spill store under Workers=%d diverged from the in-memory reference:\nref:\n%s\ngot:\n%s", workers, ref, got)
		}
	}
}

// TestSpillStoreFingerprintSampledTeachers: the same identity must hold
// in sampled-teacher mode, where every iteration's teacher draw checks out
// a fresh subset, loading the cold ones into a hot set of 2 per cohort.
func TestSpillStoreFingerprintSampledTeachers(t *testing.T) {
	sampled := func(c *Config) {
		c.DistillIters = 4
		c.TeachersPerIter = 2
	}
	ref := goldenRun(t, sampled)
	got := goldenRun(t, func(c *Config) {
		sampled(c)
		c.ReplicaStore = ReplicaStoreSpill
		c.HotSet = 2
	})
	if got != ref {
		t.Fatal("sampled-mode spill store diverged from the in-memory reference")
	}
}

// TestSpillDeviceStoreFingerprintGolden: at PipelineDepth 2 trained
// states rest in the device stores until their downloads, so a spill
// fleet's device stores, bounded by a hot set of 2, evict — and the run
// must still be byte-identical to the memory store's depth-2 reference
// (TestPipelinedDeterminismGolden's) under one worker and under three.
func TestSpillDeviceStoreFingerprintGolden(t *testing.T) {
	depth2 := func(c *Config) { c.PipelineDepth = 2 }
	ref := goldenRun(t, func(c *Config) { depth2(c); c.Workers = 1 })
	for _, workers := range []int{1, 3} {
		got, dev := goldenRunStats(t, func(c *Config) {
			depth2(c)
			c.ReplicaStore, c.HotSet, c.Workers = ReplicaStoreSpill, 2, workers
		})
		if got != ref {
			t.Fatalf("spill devices at depth 2 under Workers=%d diverged from the memory store:\nref:\n%s\ngot:\n%s", workers, ref, got)
		}
		if dev.Mode != ReplicaStoreSpill || dev.Evictions == 0 {
			t.Errorf("Workers=%d: device stores in mode %q evicted %d entries; want a spill store that evicts", workers, dev.Mode, dev.Evictions)
		}
	}
}

// TestCheckoutDegradesOnCorruptSpillRecord: a member whose spilled bytes
// fail to load must be dropped from the phase and recorded as a fault —
// the round degrades, the process survives (the pre-tier behaviour was a
// panic in checkout).
func TestCheckoutDegradesOnCorruptSpillRecord(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	cfg.ReplicaStore = ReplicaStoreSpill
	cfg.HotSet = 1
	cfg.SpillDir = t.TempDir()
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 4; i++ {
		m := model.MustBuild("mlp", tinyShape(), 4, tensor.NewRand(uint64(100+i)))
		if _, err := srv.Register("mlp", nn.CaptureState(m)); err != nil {
			t.Fatal(err)
		}
	}
	ts := srv.cohorts.byArch["mlp"].slots
	if ts.file == nil || !ts.file.Written(0) {
		t.Fatal("test setup: member 0 was not spilled (HotSet=1 should evict it)")
	}
	// Smash member 0's record length prefix on disk.
	f, err := os.OpenFile(ts.spillPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatalf("distillation must degrade, not fail: %v", err)
	}
	faults := srv.TakeReplicaFaults()
	if len(faults) == 0 || faults[0] != 0 {
		t.Fatalf("TakeReplicaFaults=%v, want device 0 recorded", faults)
	}
	if got := srv.TakeReplicaFaults(); len(got) != 0 {
		t.Fatalf("TakeReplicaFaults must drain, second call returned %v", got)
	}
	// The healthy members must still have moved.
	st := srv.ReplicaStoreStats()
	if st.ReplicaFaults == 0 {
		t.Fatal("store stats did not count the fault")
	}
}

// TestCheckpointRoundTripWithSpill: checkpoints must capture every
// member wherever its bytes live — hot set or spill file — and restore
// bit-exactly into another spill-tier federation.
func TestCheckpointRoundTripWithSpill(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	cfg.ReplicaStore = ReplicaStoreSpill
	cfg.HotSet = 1
	co := federation(t, cfg, 4, "mlp", "lenet-s")
	srv := co.Server()
	// Move replicas away from their virgin states so the spill tier holds
	// real (dirty-evicted) records.
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if st := srv.ReplicaStoreStats(); st.SpillRecords == 0 {
		t.Fatal("test setup: no members spilled before checkpointing")
	}
	fresh := federation(t, cfg, 4, "mlp", "lenet-s")
	if err := fresh.LoadCheckpoint(bytes.NewReader(snapshotBytes(t, co))); err != nil {
		t.Fatal(err)
	}
	restored := fresh.Server()
	for id := 0; id < 4; id++ {
		want, err := srv.ReplicaState(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.ReplicaState(id)
		if err != nil {
			t.Fatal(err)
		}
		for name := range want {
			if tensor.MaxAbsDiff(got[name], want[name]) != 0 {
				t.Fatalf("device %d state %q not restored bit-exactly through the spill tier", id, name)
			}
		}
	}
}

// TestEvalDevicesSubset: EvalDevices caps the per-round replica
// evaluation to a fixed prefix — the million-device run's way of keeping
// evaluation O(constant).
func TestEvalDevicesSubset(t *testing.T) {
	ds := tinyDataset(3)
	shards := partition.IID(ds.NumTrain(), 6, tensor.NewRand(4))
	cfg := goldenConfig()
	cfg.Rounds = 1
	cfg.EvalDevices = 2
	co, err := New(cfg, ds, []string{"mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	hist, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(hist[len(hist)-1].DeviceAcc); got != 2 {
		t.Fatalf("evaluated %d devices, want EvalDevices=2", got)
	}
}

func TestStoreConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown ReplicaStore", func(c *Config) { c.ReplicaStore = "bogus" }},
		{"negative HotSet", func(c *Config) { c.HotSet = -2 }},
		{"negative EvalDevices", func(c *Config) { c.EvalDevices = -1 }},
	} {
		cfg := tinyConfig()
		tc.mutate(&cfg)
		if _, err := NewServer(cfg, tinyShape(), 4); err == nil {
			t.Fatalf("%s: want configuration error", tc.name)
		}
	}
}

// TestReplicaStoreStatsMath pins the derived-ratio edge cases the
// reports rely on.
func TestReplicaStoreStatsMath(t *testing.T) {
	var idle ReplicaStoreStats
	if got := idle.HitRate(); got != 1 {
		t.Fatalf("idle HitRate=%v, want 1", got)
	}
	st := ReplicaStoreStats{Hits: 6, Misses: 2}
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("HitRate=%v, want 0.75", got)
	}
	d := ReplicaStoreStats{Hits: 10, Misses: 5, Evictions: 3}.Sub(ReplicaStoreStats{Hits: 4, Misses: 5, Evictions: 1})
	if d.Hits != 6 || d.Misses != 0 || d.Evictions != 2 {
		t.Fatalf("Sub delta = %+v", d)
	}
}
