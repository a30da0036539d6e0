package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Arena is a step-scoped bump allocator for tensor storage over a chain
// of retained slabs. A request carves buf[off:off+n:off+n] out of the
// first slab with room (first-fit over the per-slab offsets, so a small
// request still fills the tail a large one skipped); one that fits
// nowhere appends a slab of max(n, min(elements held, slabCap)) elements,
// so a small arena stays small and a large one grows in slabCap pieces —
// rounded up from n only as far as keeps the arena within 1.25 × the
// largest step it has served, so the rounding alone never breaks that
// bound. Reset rewinds every offset and frees nothing: a step that ran
// once runs again at the same addresses without growing the chain, and
// the chain ends up holding about the largest step it has served — not,
// as a free list per buffer length would, the high-water mark of every
// length of every model the arena has ever seen.
//
// A growing chain drops slabs that nothing is live in, the largest first,
// up to the new slab's length: the new slab takes their place, so the
// growth allocates no more than it would have and the arena holds less.
// That is how a request larger than any hole is served from what whole
// releases left: a step that released everything it built from small
// buffers (a training step streams its lowerings a tile at a time) may be
// followed by one that asks for large ones (an evaluation at four times
// the batch). Nothing else is ever dropped: replacing the chain by one
// exact-size slab at every Reset turns the old slabs into garbage that
// the collector's pacing lets pile up next to their replacement — the
// ten-device benchmark workload peaked at 394 MB that way, against 228 MB
// with the chain kept — while a drop happens only when the chain grows,
// which a repeated step never makes it do.
//
// Release hands a float64 buffer back before the step ends, for callers
// that know its last reader: a conv lowering once its GEMMs have run,
// backward scratch when the node's backward returns. A released span that
// ends at its slab's bump offset pulls the offset back; any other goes on
// a list of spans — neighbours within a slab merged — that FloatsRaw
// serves from (best fit, the remainder staying on the list) before it
// bumps the chain. The list indexes the chain and owns no storage, and
// Reset empties it: nothing but the chain survives a Reset, so a step
// holds about its largest live set rather than everything it touched.
//
// The contract is strictly step-scoped: a tensor obtained from an arena is
// valid until the next Reset or its Release, after which its storage (and,
// after Reset, its header) may be handed to a later request. Values that
// outlive the step (model parameters, running statistics, uploads) must be
// deep-copied out before Reset — exactly the copies the federated runtime
// already makes. Within a step no two live buffers overlap, every buffer
// has cap == len (an append reallocates instead of running into its
// neighbour), and every *Tensor is a distinct header, so tensors can be
// keyed by identity.
//
// An Arena is NOT safe for concurrent use; every concurrent worker owns
// its own arena (see sched.Options.WorkerScratch and ForEachWorker). Only
// HeldBytes and StepPeakBytes may be read from another goroutine. The nil
// *Arena is valid and falls back to plain heap allocation, so code can
// thread an optional arena without branching at every call site.
type Arena struct {
	floats chain[float64]
	ints   chain[int]
	free   []span    // released float64 spans of this step
	hdrs   []*Tensor // headers, recycled in hand-out order
	hnext  int
	step   int64 // storage bytes live: handed out since the last Reset and not released
	high   int64 // the owner's copy of peak
	held   atomic.Int64
	peak   atomic.Int64
}

// span is n elements at offset off of float64 slab number slab.
type span struct{ slab, off, n int }

// poison makes Release fill what it takes back with NaN, and point the
// released header at NaN of its old length, when the binary is a test, so
// a read after release fails every bit-identity check and every
// finiteness check downstream of it. The binary's name says so (pkg.test,
// as go test builds it) rather than testing.Testing(): linking package
// testing into every program cost the benchmark 6 % of setup_s.
var poison = strings.HasSuffix(strings.TrimSuffix(os.Args[0], ".exe"), ".test")

// graves is the NaN every released header reads in a test binary: never
// written once stored, and replaced by a longer one when a release
// outgrows it, so releases on any goroutine share it without allocating.
var graves atomic.Pointer[[]float64]

// grave returns n NaNs with capacity n+1, which no buffer an arena hands
// out has: that is how Release knows a header is released already.
func grave(n int) []float64 {
	if g := graves.Load(); g != nil && len(*g) > n {
		return (*g)[: n : n+1]
	}
	b := make([]float64, 2*n+1)
	fillNaN(b)
	graves.Store(&b)
	return b[: n : n+1]
}

func fillNaN(b []float64) {
	nan := math.NaN()
	for i := range b {
		b[i] = nan
	}
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

// take carves n elements of unspecified contents out of the first slab
// with room, or returns nil when none has it.
func (c chain[T]) take(n int) []T {
	for i := range c {
		s := &c[i]
		if len(s.buf)-s.off >= n {
			s.off += n
			return s.buf[s.off-n : s.off : s.off]
		}
	}
	return nil
}

// elems returns the elements the chain holds.
func (c chain[T]) elems() int {
	n := 0
	for _, s := range c {
		n += len(s.buf)
	}
	return n
}

// grow appends a slab of the given length and returns its first n
// elements.
func (c *chain[T]) grow(n, length int) []T {
	b := make([]T, length)
	*c = append(*c, slab[T]{buf: b, off: n})
	return b[:n:n]
}

// dropEmpty removes slabs nothing is live in (offset 0: nothing handed
// out since the last Reset, or all of it released), largest first, as
// long as their lengths sum to at most budget, and returns that sum and,
// when any went, remap[i] = slab i's index after the removal. No released
// span lies in an empty slab — a span reaching the bump offset pulls it
// back — so the released list only needs its indices remapped.
func (c *chain[T]) dropEmpty(budget int) (dropped int, remap []int) {
	var empty []int
	for i, s := range *c {
		if s.off == 0 && len(s.buf) <= budget {
			empty = append(empty, i)
		}
	}
	if len(empty) == 0 {
		return 0, nil
	}
	slices.SortFunc(empty, func(i, j int) int { return len((*c)[j].buf) - len((*c)[i].buf) })
	remap = make([]int, len(*c))
	for _, i := range empty {
		if l := len((*c)[i].buf); dropped+l <= budget {
			dropped += l
			remap[i] = -1
		}
	}
	if dropped == 0 {
		return 0, nil
	}
	j := 0
	for i, s := range *c {
		if remap[i] < 0 {
			continue
		}
		remap[i] = j
		(*c)[j] = s
		j++
	}
	clear((*c)[j:])
	*c = (*c)[:j]
	return dropped, remap
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
	a.step = 0
	a.floats.rewind()
	a.ints.rewind()
	a.free = a.free[:0]
	a.hnext = 0
}

// alloc serves n elements of size bytes each from c and books them. A
// request that fits no slab appends one, rounded up towards the elements
// the chain holds — slabs grow geometrically — but only as far as leaves
// the arena holding no more than 1.25 × the largest step it has served,
// this request counted. The new slab takes the place of the largest
// empty slabs it can (the holes whole releases leave) up to its own
// length, so it costs no more allocation than it would have and the arena
// holds less.
func alloc[T float64 | int](a *Arena, c *chain[T], n int, size int64) []T {
	b := c.take(n)
	if b == nil {
		room := int((5*max(a.high, a.step+int64(n)*size)/4 - a.held.Load()) / size)
		grown := max(n, min(c.elems(), slabCap, room))
		dropped, remap := c.dropEmpty(grown)
		if _, floats := any(c).(*chain[float64]); floats && remap != nil {
			for i := range a.free {
				a.free[i].slab = remap[a.free[i].slab]
			}
		}
		b = c.grow(n, grown)
		a.held.Add(int64(grown-dropped) * size)
	}
	a.booked(int64(n) * size)
	return b
}

// booked adds n bytes to the live count and moves the high-water mark.
func (a *Arena) booked(n int64) {
	a.step += n
	if a.step > a.high {
		a.high = a.step
		a.peak.Store(a.step)
	}
}

// Release takes t's storage back before the step ends and clears t's
// data (in a test binary, t reads NaN at its old length: see poison), so
// a later use of t fails rather than reading whatever the storage holds
// next. The caller must be the last reader of the storage under every
// header: t, its views, anything captured for a backward pass. t must
// hold a whole buffer this arena handed out; a tensor released twice, and
// any tensor on a nil arena, is left alone.
func (a *Arena) Release(t *Tensor) {
	if a == nil || len(t.data) == 0 || poison && cap(t.data) != len(t.data) {
		return
	}
	b := t.data
	t.data = nil
	if poison {
		t.data = grave(len(b))
		fillNaN(b)
	}
	a.step -= int64(len(b)) * floatBytes
	sp := a.locate(b)
	// Merge with the released neighbours on either side, then with the
	// slab's untouched tail if the span reaches it.
	for i := 0; i < len(a.free); {
		f := a.free[i]
		if f.slab != sp.slab || (f.off+f.n != sp.off && sp.off+sp.n != f.off) {
			i++
			continue
		}
		sp.off, sp.n = min(sp.off, f.off), sp.n+f.n
		a.free[i] = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
	}
	if s := &a.floats[sp.slab]; sp.off+sp.n == s.off {
		s.off = sp.off
		return
	}
	a.free = append(a.free, sp)
}

// locate finds the slab b was carved from.
func (a *Arena) locate(b []float64) span {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	for i, s := range a.floats {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(s.buf)))
		if p >= base && p < base+uintptr(len(s.buf))*floatBytes {
			return span{slab: i, off: int(p-base) / floatBytes, n: len(b)}
		}
	}
	panic("tensor: Release of a buffer this arena did not hand out")
}

// reuse carves n elements out of the smallest released span that has
// them, or returns nil.
func (a *Arena) reuse(n int) []float64 {
	best := -1
	for i, f := range a.free {
		if f.n >= n && (best < 0 || f.n < a.free[best].n) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	f := a.free[best]
	if f.n == n {
		a.free[best] = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
	} else {
		a.free[best] = span{slab: f.slab, off: f.off + n, n: f.n - n}
	}
	return a.floats[f.slab].buf[f.off : f.off+n : f.off+n]
}

// Overlaps reports whether t and u share any element of storage — a view
// and its base, two views of one buffer.
func (t *Tensor) Overlaps(u *Tensor) bool {
	if len(t.data) == 0 || len(u.data) == 0 {
		return false
	}
	a := uintptr(unsafe.Pointer(unsafe.SliceData(t.data)))
	b := uintptr(unsafe.Pointer(unsafe.SliceData(u.data)))
	return a < b+uintptr(len(u.data))*floatBytes && b < a+uintptr(len(t.data))*floatBytes
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
// caller having to materialise a shape copy. Like NewRawLike it reads
// only t's shape, so t may be a tensor whose storage has been released.
func (a *Arena) NewLike(t *Tensor) *Tensor {
	out := a.NewRawLike(t)
	if a != nil {
		clear(out.data)
	}
	return out
}

// NewRawLike returns a tensor with t's shape and unspecified contents. It
// is sized from the shape, not from t's storage: a gradient is shaped
// like a value whose storage may already be released.
func (a *Arena) NewRawLike(t *Tensor) *Tensor {
	if a == nil {
		return New(t.shape...)
	}
	return a.wrap(a.FloatsRaw(checkShape(t.shape)), t.shape)
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
	if len(a.free) > 0 && n > 0 {
		if b := a.reuse(n); b != nil {
			a.booked(int64(n) * floatBytes)
			return b
		}
	}
	return alloc(a, &a.floats, n, floatBytes)
}

// Ints returns an int scratch slice of length n with unspecified contents,
// for index and label buffers that are fully overwritten.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return alloc(a, &a.ints, n, intBytes)
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

// StepBytes reports the float64 and int storage bytes live in the current
// step: handed out since the last Reset and not released (headers and
// views take none). Owner goroutine only.
func (a *Arena) StepBytes() int64 {
	if a == nil {
		return 0
	}
	return a.step
}

// StepPeakBytes reports the largest StepBytes any step has reached at any
// point inside it — the high-water mark of live bytes, not the sum of what
// a step touched. Safe to call from any goroutine.
func (a *Arena) StepPeakBytes() int64 {
	if a == nil {
		return 0
	}
	return a.peak.Load()
}
