package tensor

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Arena is a step-scoped bump allocator for tensor storage over a chain
// of retained slabs. A request carves buf[off:off+n:off+n] out of the
// first slab with room (first-fit over the per-slab offsets, so a small
// request still fills the tail a large one skipped); one that fits
// nowhere appends a slab of max(n, min(elements held, slabCap)) elements,
// so a small arena stays small and a large one grows in slabCap pieces.
// Reset rewinds every offset and frees nothing: a step that ran once runs
// again at the same addresses without growing the chain, and the chain
// ends up holding about the largest step it has served — not, as a free
// list per buffer length would, the high-water mark of every length of
// every model the arena has ever seen.
//
// Slabs are never dropped or coalesced. Replacing the chain by one
// exact-size slab at Reset turns the old slabs into garbage that the
// collector's pacing lets pile up next to their replacement: the
// ten-device benchmark workload peaked at 394 MB that way, against 228 MB
// with the chain kept.
//
// The contract is strictly step-scoped: a tensor obtained from an arena is
// valid until the next Reset, after which its storage and its header may
// be handed to a later request. Values that outlive the step (model
// parameters, running statistics, uploads) must be deep-copied out before
// Reset — exactly the copies the federated runtime already makes. Within
// a step no two buffers overlap, every buffer has cap == len (an append
// reallocates instead of running into its neighbour), and every *Tensor
// is a distinct header, so tensors can be keyed by identity.
//
// An Arena is NOT safe for concurrent use; every concurrent worker owns
// its own arena (see sched.Options.WorkerScratch and ForEachWorker). Only
// HeldBytes and StepPeakBytes may be read from another goroutine. The nil
// *Arena is valid and falls back to plain heap allocation, so code can
// thread an optional arena without branching at every call site.
type Arena struct {
	floats chain[float64]
	ints   chain[int]
	hdrs   []*Tensor // headers, recycled in hand-out order
	hnext  int
	step   int64 // storage bytes handed out since the last Reset
	held   atomic.Int64
	peak   atomic.Int64
}

// slabCap bounds, in elements, how far a new slab is rounded up beyond
// the request that caused it (8 MiB of float64).
const slabCap = 1 << 20

const (
	floatBytes  = 8
	intBytes    = bits.UintSize / 8
	headerBytes = int64(unsafe.Sizeof(header{}))
)

// chain is the slab list of one element type.
type chain[T float64 | int] []slab[T]

type slab[T any] struct {
	buf []T
	off int // elements handed out since the last Reset
}

// take returns n elements of unspecified contents, and the length of the
// slab it had to append to find them (0 when an existing slab had room).
func (c *chain[T]) take(n int) (b []T, grown int) {
	held := 0
	for i := range *c {
		s := &(*c)[i]
		if len(s.buf)-s.off >= n {
			b = s.buf[s.off : s.off+n : s.off+n]
			s.off += n
			return b, 0
		}
		held += len(s.buf)
	}
	grown = max(n, min(held, slabCap))
	b = make([]T, grown)
	*c = append(*c, slab[T]{buf: b, off: n})
	return b[:n:n], grown
}

func (c chain[T]) rewind() {
	for i := range c {
		c[i].off = 0
	}
}

// header is a Tensor with inline room for its shape: one allocation, and
// reshaping a recycled header of rank ≤ 4 never allocates.
type header struct {
	Tensor
	dims [4]int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset makes all storage and every header handed out since the previous
// Reset available again. All tensors and slices previously returned by
// the arena become invalid: they may alias later allocations.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.notePeak()
	a.step = 0
	a.floats.rewind()
	a.ints.rewind()
	a.hnext = 0
}

func (a *Arena) notePeak() {
	if a.step > a.peak.Load() {
		a.peak.Store(a.step)
	}
}

// account books n bytes handed out, grown of them from a new slab.
func (a *Arena) account(n, grown int64) {
	a.step += n
	if grown > 0 {
		a.held.Add(grown)
		a.notePeak()
	}
}

// wrap returns the step's next header, pointed at data under shape.
func (a *Arena) wrap(data []float64, shape []int) *Tensor {
	if a.hnext == len(a.hdrs) {
		h := &header{}
		h.shape = h.dims[:0]
		a.hdrs = append(a.hdrs, &h.Tensor)
		a.held.Add(headerBytes)
	}
	t := a.hdrs[a.hnext]
	a.hnext++
	t.data = data
	t.shape = append(t.shape[:0], shape...)
	return t
}

// New returns a zero-filled tensor with the given shape. A nil arena
// allocates from the heap, identically to package-level New.
func (a *Arena) New(shape ...int) *Tensor {
	t := a.NewRaw(shape...)
	if a != nil {
		clear(t.data) // recycled storage is the steady state
	}
	return t
}

// NewRaw is New without the zero fill: the returned tensor's contents are
// unspecified. It exists for kernels that overwrite every element (matrix
// multiplication outputs, gathered batches, filled noise), where clearing
// first would be a wasted pass.
func (a *Arena) NewRaw(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	return a.wrap(a.FloatsRaw(checkShape(shape)), shape)
}

// NewLike returns a zero-filled tensor with t's shape — New without the
// caller having to materialise a shape copy.
func (a *Arena) NewLike(t *Tensor) *Tensor {
	out := a.NewRawLike(t)
	if a != nil {
		clear(out.data)
	}
	return out
}

// NewRawLike returns a tensor with t's shape and unspecified contents.
func (a *Arena) NewRawLike(t *Tensor) *Tensor {
	if a == nil {
		return New(t.shape...)
	}
	return a.wrap(a.FloatsRaw(len(t.data)), t.shape)
}

// Floats returns a zeroed scratch []float64 of length n from the same
// slabs as tensor storage.
func (a *Arena) Floats(n int) []float64 {
	b := a.FloatsRaw(n)
	if a != nil {
		clear(b)
	}
	return b
}

// FloatsRaw is Floats without the zero fill.
func (a *Arena) FloatsRaw(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	b, grown := a.floats.take(n)
	a.account(int64(n)*floatBytes, int64(grown)*floatBytes)
	return b
}

// Ints returns an int scratch slice of length n with unspecified contents,
// for index and label buffers that are fully overwritten.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	b, grown := a.ints.take(n)
	a.account(int64(n)*intBytes, int64(grown)*intBytes)
	return b
}

// View returns a tensor sharing t's storage under a new shape (the arena
// analogue of Reshape), recycling the tensor header. The element count
// must be preserved. Like every arena value, the view is only valid until
// Reset.
func (a *Arena) View(t *Tensor, shape ...int) *Tensor {
	if a == nil {
		return t.Reshape(shape...)
	}
	if n := checkShape(shape); n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot view %v (%d elems) as %v (%d elems)", t.shape, len(t.data), append([]int(nil), shape...), n))
	}
	return a.wrap(t.data, shape)
}

// ViewLike returns a view of t's storage under like's shape (the
// arena-recycled analogue of t.Reshape(like.Shape()...)).
func (a *Arena) ViewLike(t, like *Tensor) *Tensor {
	if a == nil {
		return t.Reshape(like.shape...)
	}
	return a.View(t, like.shape...)
}

// HeldBytes reports the bytes the arena retains: every float64 slab,
// every int slab and every tensor header (struct plus inline shape), in
// use or free. It never decreases. Safe to call from any goroutine.
func (a *Arena) HeldBytes() int64 {
	if a == nil {
		return 0
	}
	return a.held.Load()
}

// StepBytes reports the float64 and int storage bytes handed out since
// the last Reset (headers and views take none). Owner goroutine only.
func (a *Arena) StepBytes() int64 {
	if a == nil {
		return 0
	}
	return a.step
}

// StepPeakBytes reports the largest StepBytes any step has reached, as of
// the last Reset or slab growth. Safe to call from any goroutine.
func (a *Arena) StepPeakBytes() int64 {
	if a == nil {
		return 0
	}
	return a.peak.Load()
}
