package fed

import (
	"runtime"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// TestLocalStepAllocs pins the allocation budget of the arena-backed
// local training path. A full LocalUpdate here is one epoch over an
// 80-sample shard at batch 16 — five optimiser steps of a conv net — and
// historically cost ~1,800 heap allocations; with step-scoped arenas,
// slab tape nodes and static backward functions a warmed-up run stays
// around 155. The ceiling leaves headroom for compiler-version noise
// while still failing loudly if a hot-path allocation regresses.
func TestLocalStepAllocs(t *testing.T) {
	ds := data.SynthMNIST(data.Sizes{TrainPerClass: 8, TestPerClass: 2}, 7)
	idx := make([]int, ds.NumTrain())
	for i := range idx {
		idx[i] = i
	}
	m := model.MustBuild("lenet-s", model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(3))
	dev := NewDevice(0, "lenet-s", m, data.NewSubset(ds, idx))
	dev.Scratch = ag.NewArena()
	cfg := LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.01}
	rng := tensor.NewRand(9)

	step := func() {
		if _, err := dev.LocalUpdate(cfg, rng); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm up the arena's slabs and the tape-node slab
	step()

	const ceiling = 400.0
	if got := testing.AllocsPerRun(5, step); got > ceiling {
		t.Fatalf("arena local update allocates %.0f objects/run, ceiling %v", got, ceiling)
	}
}

// TestLocalStepHeapAcrossGC: a warmed-up local update takes what its
// steps need from the device's arena, whose slabs a GC leaves alone, so
// the update after two collections allocates next to nothing on the heap.
// Backward scratch kept in a sync.Pool, which every collection empties,
// would be allocated again here: about 1.6 MB for mlp's linear layers.
func TestLocalStepHeapAcrossGC(t *testing.T) {
	ds := data.SynthMNIST(data.Sizes{TrainPerClass: 8, TestPerClass: 2}, 7)
	idx := make([]int, ds.NumTrain())
	for i := range idx {
		idx[i] = i
	}
	for _, arch := range []string{"mlp", "lenet-s"} {
		t.Run(arch, func(t *testing.T) {
			m := model.MustBuild(arch, model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(3))
			dev := NewDevice(0, arch, m, data.NewSubset(ds, idx))
			dev.Scratch = ag.NewArena()
			cfg := LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.01}
			rng := tensor.NewRand(9)
			step := func() {
				if _, err := dev.LocalUpdate(cfg, rng); err != nil {
					t.Fatal(err)
				}
			}
			step()
			step()
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			step()
			runtime.ReadMemStats(&after)
			const ceiling = 64 << 10
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s: %d heap bytes in the update after two GCs", arch, got)
			if got > ceiling {
				t.Fatalf("%s: the update after two GCs allocates %d heap bytes, ceiling %d", arch, got, ceiling)
			}
		})
	}
}
