package ag

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

func matMulBack(v *Variable, g *tensor.Tensor) {
	a, b := v.parents[0], v.parents[1]
	if sink := a.gradSink(); sink != nil {
		// dA += g · Bᵀ
		tensor.MatMulTransBAccInto(sink, g, b.value)
	}
	if sink := b.gradSink(); sink != nil {
		// dB += Aᵀ · g
		tensor.MatMulTransAAccInto(sink, a.value, g)
	}
}

// MatMul returns the matrix product a·b for 2-D Variables.
func MatMul(a, b *Variable) *Variable {
	ar := arenaOf(a, b)
	out := ar.tensorRaw(a.value.Dim(0), b.value.Dim(1))
	tensor.MatMulInto(out, a.value, b.value)
	if !anyRequires(a, b) {
		return constIn(ar, out)
	}
	return newNode(ar, out, matMulBack, a, b)
}

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
// (x, w) or (x, w, b).
func linearBack(v *Variable, g *tensor.Tensor) {
	x, w := v.parents[0], v.parents[1]
	if sink := x.gradSink(); sink != nil {
		// dX += g · W
		tensor.MatMulAccInto(sink, g, w.value)
	}
	if sink := w.gradSink(); sink != nil {
		// dW += gᵀ · X
		tensor.MatMulTransAAccInto(sink, g, x.value)
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
// backward accumulates dX, dW and db straight into the gradient buffers.
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
	out := ar.tensorRaw(n, o)
	tensor.MatMulTransBInto(out, x.value, w.value)
	if b != nil {
		addBiasRowsInPlace(out.Data(), b.value.Data(), n, o)
	}
	if !anyRequires(x, w, b) {
		return constIn(ar, out)
	}
	return newNode(ar, out, linearBack, x, w, b)
}
