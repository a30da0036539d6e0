// Package ag implements a define-by-run reverse-mode automatic
// differentiation engine over package tensor.
//
// A Variable wraps a tensor value and, when gradients are required,
// participates in a dynamically built computation tape. Calling Backward on
// a scalar Variable walks the tape in reverse topological order and
// accumulates gradients into every reachable Variable whose RequiresGrad
// flag is set — including *input* Variables, which FedZKT's adversarial
// generator update and the paper's Figure 2 (gradient norms w.r.t. input
// data) depend on.
//
// Graph pruning: an operation only records parents and a backward closure
// if at least one operand requires a gradient, so inference-mode forward
// passes over constant inputs build no graph at all. Frozen parameters
// (RequiresGrad=false), such as teacher models during server-side
// distillation, are skipped during accumulation, while gradients still flow
// through them to upstream inputs.
//
// Arenas: every op allocates its forward value, backward scratch and
// interior gradient buffers through the Arena of its operands (the first
// operand carrying one wins; leaves created by NewVar/Param/Const carry
// none). Wrapping a step's input with ConstIn(arena, x) therefore threads
// the arena through the whole tape with no other call-site changes, and
// one Arena.Reset after the optimiser step recycles every step-scoped
// buffer AND tape node. Ops that know a buffer's last reader hand it back
// sooner (tensor.Arena.Release): a conv lowering after the last GEMM that
// reads it, conv and pooling backward scratch when the node's backward
// returns, an interior node's gradient as soon as that backward has
// consumed it — so an arena's tape is walked by Backward once. A caller
// that reads an interior x.Grad() after Backward marks x with RetainGrad
// first; on the heap path an unretained interior gradient is dropped the
// same way, so both paths follow one rule. An entry of a shared ColMemo
// is never released by a reader. An arena marked ForwardOnly (evaluation)
// records no tape at all, so its ops save nothing for a backward and
// chains may Discard an activation after its one reader. Leaf gradients
// (parameters) never come from the step arena, so optimisers can keep
// reading them after Reset, and Backward never takes them back: a leaf's
// gradient is allocated on its first accumulation — from the heap, kept
// for the life of the leaf (server-side models), or, between LendGrads and
// DetachGrads, from a longer-lived tensor arena that takes the buffer back
// when its owner resets it (a device's local update, whose gradients die
// with the task). A leaf no accumulation has reached has a nil gradient
// either way.
//
// Concurrency: a tape — and therefore an Arena — belongs to one goroutine.
// Two goroutines must never run Backward over graphs sharing a
// RequiresGrad Variable (that has always raced on gradient accumulation);
// sharing read-only constants (Const, no arena) is safe.
package ag

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// maxParents is the largest operand count of any op (Conv2d: x, w, bias).
const maxParents = 3

// Variable is a node in the autodiff tape: a tensor value plus an optional
// gradient and backward closure.
type Variable struct {
	value *tensor.Tensor
	grad  *tensor.Tensor
	// back propagates the node's accumulated output gradient to the
	// parents. nil for leaves and for nodes created in no-grad contexts.
	// Simple ops install a shared static function that reads everything
	// it needs from the node (parents, value, aux fields), so recording
	// them allocates nothing; only ops with genuinely op-specific state
	// (convolution lowerings, batch-norm statistics) pay for a closure.
	back         func(v *Variable, g *tensor.Tensor)
	ar           *Arena
	parents      [maxParents]*Variable
	nparents     uint8
	requiresGrad bool
	// vis is Backward's visited mark (replacing a per-call map). It is
	// only ever set on RequiresGrad nodes of the tape being walked, so
	// shared constants stay untouched and concurrent tapes cannot race.
	vis bool
	// aux0/aux1/auxI/auxT carry small per-op backward state for the
	// static backward functions (a scale factor, pooling argmaxes, NLL
	// labels, a clamped forward copy), in place of closure captures.
	aux0, aux1 float64
	auxI       []int
	auxT       *tensor.Tensor
	// lent, on a leaf, is the arena its gradient buffer is drawn from
	// (LendGrads); nil allocates it from the heap.
	lent *tensor.Arena
	// retain keeps an interior node's gradient past its backward
	// (RetainGrad).
	retain bool
}

// Arena is the step-scoped allocator of the autodiff engine: tensor
// buffers come from an embedded tensor.Arena and tape nodes from a
// recycled slab, so a warmed-up training step allocates (almost) nothing.
// Reset recycles everything handed out since the previous Reset; see the
// package comment for the lifetime and concurrency contract. The nil
// *Arena is valid and falls back to heap allocation everywhere.
type Arena struct {
	// T is the tensor-buffer arena, shared with non-autodiff consumers
	// (batch gathering, noise sampling) so the whole step draws from one
	// pool.
	T *tensor.Arena

	chunks [][]Variable
	chunk  int // index of the chunk currently allocating
	used   int // nodes handed out from that chunk

	// Reusable Backward scratch.
	order []*Variable
	stack []frame

	// shared, when installed via ShareColMemo, serves the conv lowerings of
	// the memo's designated cross-worker batch tensor. It survives Reset:
	// entries belong to the memo's owner arena, which rebinds (clears) the
	// memo at step boundaries.
	shared *ColMemo

	// forwardOnly is set for the duration of a pass nobody will
	// differentiate (see ForwardOnly).
	forwardOnly bool
}

// convColKey identifies one shared conv lowering in a ColMemo: the input
// tensor (by identity) and the geometry that shapes the column matrix.
// Identity keying is safe because an arena hands every tensor of a step
// its own header, and a header is only recycled by that arena's Reset,
// which the memo's owner orders after Rebind(nil).
type convColKey struct {
	x                            *tensor.Tensor
	c, h, w, kh, kw, stride, pad int
}

const arenaChunk = 256

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{T: tensor.NewArena()}
}

// Tensors returns the embedded tensor arena (nil for a nil Arena), for
// consumers that gather batches or sample noise outside the tape but
// inside the step.
func (a *Arena) Tensors() *tensor.Arena {
	if a == nil {
		return nil
	}
	return a.T
}

// Reset recycles every tensor buffer and tape node handed out since the
// previous Reset. All Variables and tensors obtained through the arena
// become invalid.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.T.Reset()
	a.chunk, a.used = 0, 0
}

// ForwardOnly marks (or unmarks) the arena as running passes that will
// never be differentiated — evaluation. While the mark is set no op
// records a tape node or saves anything for a backward, whatever its
// operands require, and a conv lowering goes back to the arena as soon as
// its GEMM has read it. Owner goroutine only; a nil arena ignores it.
func (a *Arena) ForwardOnly(on bool) {
	if a != nil {
		a.forwardOnly = on
	}
}

// Discard hands v's value back to its arena in the middle of a ForwardOnly
// pass. The caller — a chain that fed v to exactly one reader — vouches
// that the reader has returned; keep lists what must stay readable (the
// chain's own input, the reader's output), and v is left alone if it
// shares storage with any of them, as a reshaped view does. Outside a
// ForwardOnly pass it does nothing: a backward may read any value.
func Discard(v *Variable, keep ...*Variable) {
	if v.ar == nil || !v.ar.forwardOnly {
		return
	}
	for _, k := range keep {
		if v.value.Overlaps(k.value) {
			return
		}
	}
	v.ar.T.Release(v.value)
}

// records reports whether an op over vs must record itself for a backward
// pass: some operand requires a gradient and the arena is not ForwardOnly.
func (a *Arena) records(vs ...*Variable) bool {
	return !(a != nil && a.forwardOnly) && anyRequires(vs...)
}

// release hands t's storage back to the arena before the step ends; the
// caller vouches that nothing will read it again (tensor.Arena.Release).
func (a *Arena) release(t *tensor.Tensor) {
	if a != nil {
		a.T.Release(t)
	}
}

// variable returns a cleared node from the slab (or the heap for a nil
// arena).
func (a *Arena) variable() *Variable {
	if a == nil {
		return &Variable{}
	}
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Variable, arenaChunk))
	}
	c := a.chunks[a.chunk]
	v := &c[a.used]
	*v = Variable{}
	a.used++
	if a.used == len(c) {
		a.chunk++
		a.used = 0
	}
	return v
}

// tensorZ allocates a zero-filled tensor from the arena (or heap).
func (a *Arena) tensorZ(shape ...int) *tensor.Tensor {
	if a == nil {
		return tensor.New(shape...)
	}
	return a.T.New(shape...)
}

// tensorRaw allocates a tensor whose contents will be fully overwritten.
func (a *Arena) tensorRaw(shape ...int) *tensor.Tensor {
	if a == nil {
		return tensor.New(shape...)
	}
	return a.T.NewRaw(shape...)
}

// rawLike allocates a tensor shaped like t with unspecified contents.
func (a *Arena) rawLike(t *tensor.Tensor) *tensor.Tensor {
	if a == nil {
		return tensor.New(t.Shape()...)
	}
	return a.T.NewRawLike(t)
}

// zeroLike allocates a zero-filled tensor shaped like t.
func (a *Arena) zeroLike(t *tensor.Tensor) *tensor.Tensor {
	if a == nil {
		return tensor.New(t.Shape()...)
	}
	return a.T.NewLike(t)
}

// view returns a reshaped view of t sharing storage.
func (a *Arena) view(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if a == nil {
		return t.Reshape(shape...)
	}
	return a.T.View(t, shape...)
}

// floats returns zeroed []float64 scratch.
func (a *Arena) floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.T.Floats(n)
}

// floatsRaw returns []float64 scratch with unspecified contents.
func (a *Arena) floatsRaw(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.T.FloatsRaw(n)
}

// intsRaw returns []int scratch with unspecified contents.
func (a *Arena) intsRaw(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.T.Ints(n)
}

// arenaOf returns the arena threaded through the operands: the first
// operand carrying one. Ops allocate their outputs and scratch from it,
// which is how wrapping a step's input in ConstIn propagates the arena
// through the whole tape.
func arenaOf(vs ...*Variable) *Arena {
	for _, v := range vs {
		if v != nil && v.ar != nil {
			return v.ar
		}
	}
	return nil
}

// NewVar wraps t in a Variable. If requiresGrad is true, gradients will be
// accumulated for it during Backward.
func NewVar(t *tensor.Tensor, requiresGrad bool) *Variable {
	return &Variable{value: t, requiresGrad: requiresGrad}
}

// Param wraps t as a trainable leaf (RequiresGrad=true).
func Param(t *tensor.Tensor) *Variable { return NewVar(t, true) }

// Const wraps t as a constant leaf (RequiresGrad=false). Constants carry
// no arena, so a Const value may be shared across concurrent tapes.
func Const(t *tensor.Tensor) *Variable { return NewVar(t, false) }

// NewVarIn wraps t in a Variable allocated from — and threading — the
// given arena: every op downstream of it draws its outputs and scratch
// from a. The Variable itself obeys the arena lifetime (invalid after
// Reset).
func NewVarIn(a *Arena, t *tensor.Tensor, requiresGrad bool) *Variable {
	v := a.variable()
	v.value = t
	v.requiresGrad = requiresGrad
	v.ar = a
	return v
}

// ConstIn is NewVarIn with RequiresGrad=false — the usual way a training
// step threads its arena: wrap the input batch and run the model forward.
func ConstIn(a *Arena, t *tensor.Tensor) *Variable { return NewVarIn(a, t, false) }

// Value returns the underlying tensor (shared, not copied).
func (v *Variable) Value() *tensor.Tensor { return v.value }

// Grad returns the accumulated gradient, or nil if none has been computed.
// After Backward an interior node's gradient is nil unless RetainGrad was
// called on it; a leaf's stays.
func (v *Variable) Grad() *tensor.Tensor { return v.grad }

// RetainGrad marks an interior node whose gradient the caller will read
// after Backward, which otherwise hands it back once the node's own
// backward has consumed it. Call it before Backward; on a leaf it changes
// nothing.
func (v *Variable) RetainGrad() { v.retain = true }

// RequiresGrad reports whether gradients are accumulated for v.
func (v *Variable) RequiresGrad() bool { return v.requiresGrad }

// SetRequiresGrad toggles gradient accumulation for a leaf. Used to freeze
// teacher models during server-side distillation. It must only be called
// on leaves (Variables with no recorded parents).
func (v *Variable) SetRequiresGrad(r bool) {
	if v.nparents != 0 {
		panic("ag: SetRequiresGrad on a non-leaf Variable")
	}
	v.requiresGrad = r
}

// ZeroGrad clears the accumulated gradient in place (keeping the buffer if
// one was allocated).
func (v *Variable) ZeroGrad() {
	if v.grad != nil {
		v.grad.Zero()
	}
}

// Shape returns the shape of the value tensor.
func (v *Variable) Shape() []int { return v.value.Shape() }

// LendGrads makes every leaf in leaves draw its gradient buffer from a —
// lazily, on the first accumulation that reaches it, exactly when the heap
// path would allocate one — until DetachGrads. The caller owns a's
// lifetime: it must detach the leaves before resetting a.
func LendGrads(leaves []*Variable, a *tensor.Arena) {
	for _, v := range leaves {
		v.lent = a
	}
}

// DetachGrads drops every leaf's gradient buffer and lender, returning the
// leaves to the state of never having been differentiated.
func DetachGrads(leaves []*Variable) {
	for _, v := range leaves {
		v.grad, v.lent = nil, nil
	}
}

// gradArena is where v's gradient buffer comes from: the step arena for an
// interior node (Backward hands it back after the node's backward, or the
// step's Reset does if it is retained), the lender or the heap (nil) for a
// leaf, which keeps the buffer across steps.
func (v *Variable) gradArena() *tensor.Arena {
	if v.ar != nil {
		return v.ar.T
	}
	return v.lent
}

// mustGrad lazily allocates and returns the zeroed gradient buffer.
func (v *Variable) mustGrad() *tensor.Tensor {
	if v.grad == nil {
		v.grad = v.gradArena().NewLike(v.value)
	}
	return v.grad
}

// accum adds g into v's gradient if v participates in differentiation.
// The first accumulation into a fresh buffer skips the zero fill and
// writes 0 + g in one pass (bit-identical; see tensor.ZeroAddInto).
func (v *Variable) accum(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.grad == nil {
		v.grad = v.gradArena().NewRawLike(v.value)
		tensor.ZeroAddInto(v.grad, g)
		return
	}
	tensor.AccumInto(v.grad, g)
}

// gradSink returns the buffer a backward fusion may accumulate into
// directly, or nil when v does not participate in differentiation. Only
// fusions whose per-element contribution is a single addition (formed
// fully before the +=) may use it — that is what keeps the fused
// accumulation bit-identical to the historical materialise-then-add path.
func (v *Variable) gradSink() *tensor.Tensor {
	if !v.requiresGrad {
		return nil
	}
	return v.mustGrad()
}

// anyRequires reports whether any of the operands require gradients.
func anyRequires(vs ...*Variable) bool {
	for _, v := range vs {
		if v != nil && v.requiresGrad {
			return true
		}
	}
	return false
}

// newNode constructs an interior tape node in arena a. If no parent
// requires a gradient, or a is ForwardOnly, the node is a plain constant
// and records nothing (callers on hot paths check that themselves first to
// avoid even building the closure).
func newNode(a *Arena, val *tensor.Tensor, back func(v *Variable, g *tensor.Tensor), parents ...*Variable) *Variable {
	v := a.variable()
	v.value = val
	v.ar = a
	if !a.records(parents...) {
		return v
	}
	v.requiresGrad = true
	v.back = back
	for _, p := range parents {
		if p == nil {
			continue
		}
		if int(v.nparents) == maxParents {
			panic("ag: too many parents for one tape node")
		}
		v.parents[v.nparents] = p
		v.nparents++
	}
	return v
}

// constIn returns a no-grad node holding val in arena a — the result of an
// op none of whose operands require gradients.
func constIn(a *Arena, val *tensor.Tensor) *Variable {
	v := a.variable()
	v.value = val
	v.ar = a
	return v
}

// Backward runs reverse-mode differentiation from the scalar root,
// accumulating gradients into every reachable Variable with
// RequiresGrad=true. The root must hold exactly one element.
//
// An interior node's gradient goes back to its arena — on the heap path it
// is only dropped — as soon as the node's backward has consumed it
// (reverse topological order means every other reader has already run),
// unless the node is marked RetainGrad. Leaves keep theirs.
func Backward(root *Variable) {
	if root.value.Len() != 1 {
		panic(fmt.Sprintf("ag: Backward root must be scalar, has %d elements", root.value.Len()))
	}
	if !root.requiresGrad {
		return // nothing on the tape
	}
	a := root.ar
	order := topoOrder(a, root)
	seed := a.rawLike(root.value)
	seed.Fill(1)
	root.accum(seed)
	a.release(seed)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back == nil || n.grad == nil {
			continue
		}
		n.back(n, n.grad)
		if !n.retain {
			n.ar.release(n.grad)
			n.grad = nil
		}
	}
	for _, n := range order {
		n.vis = false
	}
	if a != nil {
		a.order = order
	}
}

// frame is one step of the iterative DFS below.
type frame struct {
	node *Variable
	next uint8
}

// topoOrder returns the nodes reachable from root that require gradients,
// in topological order (parents before children). Iterative DFS so deep
// networks cannot overflow the goroutine stack; the visited set is the vis
// mark on the nodes themselves (cleared by Backward after the walk), so no
// map is built, and the order/stack slices are recycled through the arena.
func topoOrder(a *Arena, root *Variable) []*Variable {
	var order []*Variable
	var stack []frame
	if a != nil {
		order, stack = a.order[:0], a.stack[:0]
	}
	stack = append(stack, frame{node: root})
	root.vis = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < f.node.nparents {
			p := f.node.parents[f.next]
			f.next++
			if !p.vis && p.requiresGrad {
				p.vis = true
				stack = append(stack, frame{node: p})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	if a != nil {
		a.stack = stack[:0]
	}
	return order
}
