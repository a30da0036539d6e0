package ag

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// addBiasRowsInPlace adds the length-d bias bd to every row of the (n×d)
// matrix od.
func addBiasRowsInPlace(od, bd []float64, n, d int) {
	for r := 0; r < n; r++ {
		row := od[r*d : (r+1)*d]
		for c := range row {
			row[c] += bd[c]
		}
	}
}

// linearBack propagates through the fused x·Wᵀ + b node: parents are
// (x, w) or (x, w, b). dX and dW are each formed whole in step scratch,
// added to their gradient in one pass — the bits of a heap product plus
// AccumInto — and the scratch handed straight back.
func linearBack(v *Variable, g *tensor.Tensor) {
	x, w := v.parents[0], v.parents[1]
	if sink := x.gradSink(); sink != nil {
		// dX += g · W
		tmp := v.ar.T.NewRawLike(sink)
		tensor.MatMulInto(tmp, g, w.value)
		tensor.AccumInto(sink, tmp)
		v.ar.T.Release(tmp)
	}
	if sink := w.gradSink(); sink != nil {
		// dW += gᵀ · X
		tmp := v.ar.T.NewRawLike(sink)
		tensor.MatMulTransAInto(tmp, g, x.value)
		tensor.AccumInto(sink, tmp)
		v.ar.T.Release(tmp)
	}
	if v.nparents == 3 {
		if sink := v.parents[2].gradSink(); sink != nil {
			// db += column sums of g
			tensor.SumRowsAccInto(sink, g)
		}
	}
}

// Linear computes x·Wᵀ + b, the standard fully-connected layer: x is
// (N×in), w is (out×in), b is (out) and may be nil. The bias addition is
// fused into the matmul node — one output buffer, one tape node — and the
// backward accumulates dX, dW and db into the gradient buffers.
// The arithmetic (and therefore every float64 bit) matches the historical
// pair of a matmul node and a row-bias node: the fused node's incoming
// gradient is exactly the gradient the bias node used to forward verbatim
// to the matmul node.
func Linear(x, w, b *Variable) *Variable {
	if x.value.Dims() != 2 || w.value.Dims() != 2 || x.value.Dim(1) != w.value.Dim(1) {
		panic(fmt.Sprintf("ag: Linear shape mismatch: x %v, w %v", x.Shape(), w.Shape()))
	}
	if b != nil && (b.value.Dims() != 1 || b.value.Dim(0) != w.value.Dim(0)) {
		panic(fmt.Sprintf("ag: Linear bias shape %v for w %v", b.Shape(), w.Shape()))
	}
	ar := arenaOf(x, w, b)
	n, o := x.value.Dim(0), w.value.Dim(0)
	out := ar.T.NewRaw(n, o)
	tensor.MatMulTransBInto(out, x.value, w.value)
	if b != nil {
		addBiasRowsInPlace(out.Data(), b.value.Data(), n, o)
	}
	if !anyRequires(x, w, b) {
		return constIn(ar, out)
	}
	node := record(ar, out, linearBack, x, w, b)
	if w.requiresGrad {
		node.reads(x) // dW = gᵀ·X; dX reads only W
	}
	return node
}
