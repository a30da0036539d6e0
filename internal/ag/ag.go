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
// Arenas: every tape runs on one. An op allocates its forward value,
// backward scratch and interior gradient buffers through the Arena of its
// operands (the first operand carrying one wins). Leaves created by
// NewVar/Param/Const carry none, and an op none of whose operands carries
// one starts the tape on a new Arena, so every node an op returns carries
// an arena. Wrapping a step's input with ConstIn(arena, x) therefore
// threads the caller's arena through the whole tape with no other
// call-site changes, and one Arena.Reset after the optimiser step recycles
// every step-scoped buffer AND tape node. Ops that know a buffer's last
// reader hand it back sooner (tensor.Arena.Release): a conv lowering tile
// after the GEMM that reads it, conv and pooling backward scratch when the
// node's backward returns, an interior node's gradient as soon as that
// backward has consumed it — so an arena's tape is walked by Backward
// once. A caller that reads an interior x.Grad() after Backward marks x
// with RetainGrad first.
//
// What a recorded step keeps: each op declares which values its backward
// reads — a conv or linear layer its input, and only when its weight
// trains; a rectifier its input; tanh and the softmaxes their
// output; batch norm, pooling, upsampling, reshapes, channel splits,
// concatenations and shuffles, addition and subtraction nothing of the
// tape's (x̂, arg-maxes and permutations are their own buffers); every
// other op all its operands and its output — and the declared values are
// pinned. A chain (nn.Sequential) hands each intermediate to Discard once
// its one reader has returned, and Discard releases it unless it is
// pinned, so a step holds its tape's declared values and nothing else of
// the forward; a discarded node stays on the tape, and its gradient is
// shaped from the value's shape. An arena marked ForwardOnly (evaluation)
// records no tape at all, so nothing is pinned and a chain keeps only the
// value in flight. Leaf gradients
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
	// gradAr is the tensor arena v's gradient buffer is drawn from: its
	// own arena's for a node on one (Backward hands an interior node's
	// back after the node's backward, the step's Reset a retained one's);
	// for a leaf without one, its lender (LendGrads) or nil: newGrad then
	// takes the buffer from the heap, so it lives as long as the leaf.
	gradAr *tensor.Arena
	// retain keeps an interior node's gradient past its backward
	// (RetainGrad).
	retain bool
	// pinned keeps the value from Discard: a recorded backward reads it
	// (see reads), or it is not an op's own buffer (a leaf, a mirror).
	pinned bool
	// base, on a view (Reshape), is the Variable whose storage it shares:
	// pinning the view pins the base, and a pinned base pins its views.
	base *Variable
}

// Arena is the step-scoped allocator of the autodiff engine: tensor
// buffers come from an embedded tensor.Arena and tape nodes from a
// recycled slab, so a warmed-up training step allocates (almost) nothing.
// Reset recycles everything handed out since the previous Reset; see the
// package comment for the lifetime and concurrency contract. Every
// *Arena parameter of the package must be non-nil.
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

	// forwardOnly is set for the duration of a pass nobody will
	// differentiate (see ForwardOnly).
	forwardOnly bool
}

const arenaChunk = 256

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{T: tensor.NewArena()}
}

// Tensors returns the embedded tensor arena, for consumers that gather
// batches or sample noise outside the tape but inside the step.
func (a *Arena) Tensors() *tensor.Arena { return a.T }

// Reset recycles every tensor buffer and tape node handed out since the
// previous Reset. All Variables and tensors obtained through the arena
// become invalid.
func (a *Arena) Reset() {
	a.T.Reset()
	a.chunk, a.used = 0, 0
}

// ForwardOnly marks (or unmarks) the arena as running passes that will
// never be differentiated — evaluation. While the mark is set no op
// records a tape node or saves anything for a backward, whatever its
// operands require, and a conv lowering goes back to the arena as soon as
// its GEMM has read it. Owner goroutine only.
func (a *Arena) ForwardOnly(on bool) { a.forwardOnly = on }

// Discard hands v's value back to its arena before the step ends. The
// caller — a chain that fed v to exactly one reader — vouches that the
// reader has returned; keep lists what must stay readable (the chain's own
// input, the reader's output), and v is left alone if it shares storage
// with any of them, as a reshaped view does. It works the same whether or
// not the step records a tape: a value some recorded backward declared it
// reads is pinned, and so are leaves and mirrors, whose storage is not the
// arena's to take; Discard leaves those alone. A discarded node stays on
// the tape — its gradient is shaped from the value's shape, not its
// storage.
func Discard(v *Variable, keep ...*Variable) {
	if v.pinned || v.base != nil && v.base.pinned {
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
	return !a.forwardOnly && anyRequires(vs...)
}

// variable returns a cleared node on a from the slab.
func (a *Arena) variable() *Variable {
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Variable, arenaChunk))
	}
	c := a.chunks[a.chunk]
	v := &c[a.used]
	*v = Variable{ar: a, gradAr: a.T}
	a.used++
	if a.used == len(c) {
		a.chunk++
		a.used = 0
	}
	return v
}

// arenaOf returns the arena threaded through the operands: the first
// operand carrying one. Ops allocate their outputs and scratch from it,
// which is how wrapping a step's input in ConstIn propagates the arena
// through the whole tape. Operands that are all leaves without one (NewVar,
// Param, Const) start a tape on a new arena, which every op downstream
// draws from in turn — so every node an op returns carries an arena.
func arenaOf(vs ...*Variable) *Arena {
	for _, v := range vs {
		if v != nil && v.ar != nil {
			return v.ar
		}
	}
	return NewArena()
}

// NewVar wraps t in a Variable. If requiresGrad is true, gradients will be
// accumulated for it during Backward.
func NewVar(t *tensor.Tensor, requiresGrad bool) *Variable {
	return &Variable{value: t, requiresGrad: requiresGrad, pinned: true}
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
	v.pinned = true
	return v
}

// ConstIn is NewVarIn with RequiresGrad=false — the usual way a training
// step threads its arena: wrap the input batch and run the model forward.
func ConstIn(a *Arena, t *tensor.Tensor) *Variable { return NewVarIn(a, t, false) }

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
// lazily, on the first accumulation that reaches it — until DetachGrads.
// The caller owns a's lifetime: it must detach the leaves before resetting
// a.
func LendGrads(leaves []*Variable, a *tensor.Arena) {
	for _, v := range leaves {
		v.gradAr = a
	}
}

// DetachGrads drops every leaf's gradient buffer and lender, returning the
// leaves to the state of never having been differentiated.
func DetachGrads(leaves []*Variable) {
	for _, v := range leaves {
		v.grad, v.gradAr = nil, nil
	}
}

// mustGrad lazily allocates and returns the zeroed gradient buffer.
func (v *Variable) mustGrad() *tensor.Tensor {
	if v.grad == nil {
		v.grad = v.newGrad()
		v.grad.Zero()
	}
	return v.grad
}

// newGrad returns a gradient buffer of v's shape with unspecified
// contents: from gradAr, or — for a leaf nothing lends one (F's and G's
// parameters) — from the heap, since it must outlive every arena Reset.
func (v *Variable) newGrad() *tensor.Tensor {
	if v.gradAr == nil {
		return tensor.New(v.value.Shape()...)
	}
	return v.gradAr.NewRawLike(v.value)
}

// accum adds g into v's gradient if v participates in differentiation.
// The first accumulation into a fresh buffer skips the zero fill and
// writes 0 + g in one pass (bit-identical; see tensor.ZeroAddInto).
func (v *Variable) accum(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.grad == nil {
		v.grad = v.newGrad()
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

// record constructs an interior tape node in arena a for an op whose
// backward has been audited: the node pins nothing, and the op declares
// what its backward reads with reads. If no parent requires a gradient,
// or a is ForwardOnly, the node is a plain constant and records nothing
// (callers on hot paths check that themselves first to avoid even
// building the closure).
func record(a *Arena, val *tensor.Tensor, back func(v *Variable, g *tensor.Tensor), parents ...*Variable) *Variable {
	v := a.variable()
	v.value = val
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

// newNode is record for an op whose backward has not been audited: it may
// read every operand and its own output, so a recorded node pins them all.
func newNode(a *Arena, val *tensor.Tensor, back func(v *Variable, g *tensor.Tensor), parents ...*Variable) *Variable {
	v := record(a, val, back, parents...)
	v.reads(v)
	v.reads(v.parents[:v.nparents]...)
	return v
}

// reads declares that n's backward reads the values of vs (n itself for
// its own output), pinning them against Discard. On a node that recorded
// nothing it does nothing: no backward will run. It writes only to
// Variables not yet pinned: a leaf, which a constant shared across
// concurrent tapes (Const) is, is pinned from the start and only ever
// read.
func (n *Variable) reads(vs ...*Variable) {
	if n.back == nil {
		return
	}
	for _, v := range vs {
		if v != nil {
			v.pin()
		}
	}
}

// pin marks v, and the Variable whose storage it views, pinned.
func (v *Variable) pin() {
	if !v.pinned {
		v.pinned = true
	}
	if v.base != nil {
		v.base.pin()
	}
}

// constIn returns a no-grad node holding val in arena a — the result of an
// op none of whose operands require gradients.
func constIn(a *Arena, val *tensor.Tensor) *Variable {
	v := a.variable()
	v.value = val
	return v
}

// Backward runs reverse-mode differentiation from the scalar root,
// accumulating gradients into every reachable Variable with
// RequiresGrad=true. The root must hold exactly one element.
//
// An interior node's gradient goes back to its arena as soon as the node's
// backward has consumed it
// (reverse topological order means every other reader has already run),
// unless the node is marked RetainGrad. Leaves keep theirs.
func Backward(root *Variable) {
	if root.value.Len() != 1 {
		panic(fmt.Sprintf("ag: Backward root must be scalar, has %d elements", root.value.Len()))
	}
	if !root.requiresGrad {
		return // nothing on the tape
	}
	a := arenaOf(root)
	order := topoOrder(a, root)
	seed := a.T.NewRawLike(root.value)
	seed.Fill(1)
	root.accum(seed)
	a.T.Release(seed)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back == nil || n.grad == nil {
			continue
		}
		n.back(n, n.grad)
		if !n.retain {
			n.ar.T.Release(n.grad)
			n.grad = nil
		}
	}
	for _, n := range order {
		n.vis = false
	}
	a.order = order
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
	order, stack := a.order[:0], a.stack[:0]
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
	a.stack = stack[:0]
	return order
}
