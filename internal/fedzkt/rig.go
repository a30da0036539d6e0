package fedzkt

import (
	"fmt"
	"sync/atomic"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// deviceRig is one scheduler worker's device workspace — the pool's
// per-worker scratch (sched.Options.WorkerScratch). Everything a device
// task needs that is not the device's own state lives here and is reused
// by every task the worker runs:
//
//   - step: the step-scoped arena (activations, backward scratch, the
//     batch, the tape), reset after every optimiser step;
//   - task: the task-scoped tensor arena (the optimiser's momentum
//     buffers), reset when the device task ends;
//   - one live module per architecture, built on the worker's first task
//     of that architecture. A virtual device borrows it for the task —
//     its stored payload is decoded into it, or it is re-seeded in place
//     for a never-downloaded device — so live device models are bounded
//     by workers × architectures instead of by the round's sample, and
//     parameter gradients stay attached to the module across tasks
//     (zeroed by the optimiser at each step, never reallocated).
//
// A rig is created lazily by the pool and is only ever touched by the
// goroutine currently serving its worker slot.
type deviceRig struct {
	step    *ag.Arena
	task    *tensor.Arena
	modules map[string]nn.Module
	build   func(arch string) (nn.Module, error)
	stats   *rigStats
}

// rigStats counts, across all of a coordinator's rigs, how device
// materialisations were served: by building a module or by reusing one.
type rigStats struct {
	builds, reuses atomic.Int64
}

func newDeviceRig(build func(arch string) (nn.Module, error), stats *rigStats) *deviceRig {
	return &deviceRig{
		step:    ag.NewArena(),
		task:    tensor.NewArena(),
		modules: make(map[string]nn.Module),
		build:   build,
		stats:   stats,
	}
}

// module returns the rig's live module for arch, building it on first
// use. The module's values are whatever the previous borrower left: the
// caller installs a device's state before using it.
func (r *deviceRig) module(arch string) (nn.Module, error) {
	if m, ok := r.modules[arch]; ok {
		r.stats.reuses.Add(1)
		return m, nil
	}
	m, err := r.build(arch)
	if err != nil {
		return nil, fmt.Errorf("fedzkt: building %q device module: %w", arch, err)
	}
	r.modules[arch] = m
	r.stats.builds.Add(1)
	return m, nil
}
