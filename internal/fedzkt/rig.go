package fedzkt

import (
	"fmt"
	"sync"
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
//     buffers and the model's parameter gradients, lent for the duration
//     of the local update), reset when the device task ends;
//   - one live module per architecture, built on the worker's first task
//     of that architecture, with the captured state a slot store's
//     checkout decodes a device's state into (see
//     Coordinator.materialise): every device trains and is evaluated in
//     it, so live device models are bounded by workers × architectures
//     instead of by the fleet;
//   - one proximal-anchor buffer per architecture, lent with the module
//     to a device when the proximal term is on and its trained states do
//     not rest (such a device keeps no anchor between tasks, so it
//     re-captures it at every materialisation).
//
// A rig is created lazily by the pool and is only ever touched by the
// goroutine currently serving its worker slot.
type deviceRig struct {
	step    *ag.Arena
	task    *tensor.Arena
	modules map[string]*replicaSlot
	anchors map[string]nn.StateDict
	build   func(arch string) (nn.Module, error)
	stats   *rigStats
}

// rigStats is what a metrics scrape may read across all of a
// coordinator's rigs: how device materialisations were served — by
// building a module or by reusing one — and the rigs' arenas.
type rigStats struct {
	builds, reuses atomic.Int64
	step, task     arenaGroup
}

func newDeviceRig(build func(arch string) (nn.Module, error), stats *rigStats) *deviceRig {
	r := &deviceRig{
		step:    ag.NewArena(),
		task:    tensor.NewArena(),
		modules: make(map[string]*replicaSlot),
		anchors: make(map[string]nn.StateDict),
		build:   build,
		stats:   stats,
	}
	stats.step.add(r.step.T)
	stats.task.add(r.task)
	return r
}

// module returns the rig's live module for arch, building it on first
// use. The module's values are whatever the previous borrower left: the
// caller installs a device's state before using it.
func (r *deviceRig) module(arch string) (*replicaSlot, error) {
	if s, ok := r.modules[arch]; ok {
		r.stats.reuses.Add(1)
		return s, nil
	}
	m, err := r.build(arch)
	if err != nil {
		return nil, fmt.Errorf("fedzkt: building %q device module: %w", arch, err)
	}
	s := &replicaSlot{module: m, sd: nn.CaptureState(m)}
	r.modules[arch] = s
	r.stats.builds.Add(1)
	return s, nil
}

// anchor returns the rig's proximal-anchor buffer for arch, a dict of m's
// state layout, cloned from m on first use.
func (r *deviceRig) anchor(arch string, m nn.Module) nn.StateDict {
	a, ok := r.anchors[arch]
	if !ok {
		a = nn.CaptureState(m).Clone()
		r.anchors[arch] = a
	}
	return a
}

// payloadBuffers is a round engine's free list of payload buffers, one
// list per architecture (container sizes are a function of architecture
// and codec, so a recycled buffer always fits): what an in-process
// stageUpload encodes a trained state that rests into, a session's reader
// reads an upload frame into, and the engine's publish copies a replica
// slot into, whatever the codec. take is called from device tasks, connection
// readers and both engine stages, hence the lock; a plain LIFO list (not a
// sync.Pool) keeps the retained set deterministic — at most as many
// buffers as were ever in flight at once, never dropped by a GC cycle. A
// buffer is fully overwritten before use, so which one a caller gets
// never shows in the values.
type payloadBuffers struct {
	mu            sync.Mutex
	free          map[string][][]byte
	built, reused atomic.Int64
}

// take pops a free buffer for arch, emptied. With none free it returns nil
// and counts a build: the caller's append allocates.
func (b *payloadBuffers) take(arch string) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.free[arch]
	if len(l) == 0 {
		b.built.Add(1)
		return nil
	}
	buf := l[len(l)-1]
	l[len(l)-1] = nil
	b.free[arch] = l[:len(l)-1]
	b.reused.Add(1)
	return buf[:0]
}

// give returns a consumed payload's buffer (nil, a payload that was never
// staged, is ignored).
func (b *payloadBuffers) give(arch string, buf []byte) {
	if buf == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.free == nil {
		b.free = make(map[string][][]byte)
	}
	b.free[arch] = append(b.free[arch], buf)
}
