package ag

import (
	"sync"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// ColMemo shares the im2col lowerings of ONE designated batch tensor
// across the arenas of concurrent workers. Ensemble phases forward many
// models over the same batch; the first-layer lowering is a pure function
// of (input, conv geometry), so without sharing every worker rebuilds it
// on its own arena. A ColMemo is owned by a long-lived arena (the server's
// phase arena) and installed on each worker arena with ShareColMemo; a
// worker whose conv input IS the bound batch reads the shared entry and
// never releases it; every other lowering is its conv node's own, on the
// worker's arena, handed back at its last read (see Conv2d).
//
// Lifetime/safety contract:
//   - Rebind(batch) designates the tensor whose lowerings may be shared
//     and drops all previous entries. It must be called from the
//     coordinating goroutine while no workers are running — in server.go,
//     after the batch is generated and before the teacher fan-out.
//   - Rebind(nil) must run before the owning arena's Reset, so no entry
//     can outlive the buffers it points into. Worker arenas never own
//     entries (entries are allocated from the memo's arena), so worker
//     resets cannot invalidate the memo.
//   - col builds under the write lock into the owner arena. Concurrent
//     workers may allocate from that arena only because the coordinating
//     goroutine is blocked inside the fan-out while they run and every
//     such allocation is serialized by the memo's lock.
type ColMemo struct {
	ar    *Arena
	batch *tensor.Tensor
	mu    sync.RWMutex
	m     map[convColKey]*tensor.Tensor
}

// NewColMemo returns an empty memo whose entries will be allocated from
// ar (the arena that must outlive them).
func NewColMemo(ar *Arena) *ColMemo {
	return &ColMemo{ar: ar, m: make(map[convColKey]*tensor.Tensor)}
}

// Rebind drops every entry and designates batch (which may be nil to just
// clear) as the tensor whose conv lowerings are shared. Callers must
// ensure no worker is inside a forward when this runs.
func (m *ColMemo) Rebind(batch *tensor.Tensor) {
	if m == nil {
		return
	}
	clear(m.m)
	m.batch = batch
}

// covers reports whether x is the bound batch tensor (never, for an
// arena with no memo installed). Reading batch without the lock is safe:
// it is written only by Rebind, which happens-before every worker spawn.
func (m *ColMemo) covers(x *tensor.Tensor) bool {
	return m != nil && m.batch != nil && x == m.batch
}

// col returns the shared column matrix for key, building it once under
// the write lock on first use. The double-checked read path makes the
// steady state (entry already built) a shared RLock and a map hit.
func (m *ColMemo) col(key convColKey, xd []float64, n, sp, nsp, ckk int) *tensor.Tensor {
	m.mu.RLock()
	col := m.m[key]
	m.mu.RUnlock()
	if col != nil {
		return col
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if col := m.m[key]; col != nil {
		return col
	}
	col = m.ar.T.NewRaw(ckk, nsp)
	fillConvCol(col.Data(), key, xd, n, sp, nsp)
	m.m[key] = col
	return col
}

// ShareColMemo installs memo as the arena's shared im2col memo (nil
// uninstalls). The installation survives Reset; only the memo's owner
// manages its entries.
func (a *Arena) ShareColMemo(m *ColMemo) { a.shared = m }

// MirrorIn re-roots x onto arena a: the returned Variable shares x.value,
// but every op recorded downstream of it draws buffers from a instead of
// x's arena, which is what lets T teacher forwards over one batch run
// concurrently on per-worker arenas. Its backward is a plain pass-through
// accumulation into x — and because a gradient's first accumulation is
// ZeroAddInto (0+g, so no running value is ever -0), the extra
// mirror-then-parent hop is bit-identical to accumulating into x
// directly. When x carries no gradient the mirror degrades to a constant
// node and records nothing. Either way the mirror is pinned: its storage
// is x's, not a's to take back.
func MirrorIn(a *Arena, x *Variable) *Variable {
	m := record(a, x.value, mirrorBack, x)
	m.pinned = true
	return m
}

func mirrorBack(v *Variable, g *tensor.Tensor) {
	v.parents[0].accum(g)
}
