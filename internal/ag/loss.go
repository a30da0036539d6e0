package ag

import (
	"fmt"
	"math"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// logBack uses the clamped forward input saved in auxT.
func logBack(v *Variable, g *tensor.Tensor) {
	a := v.parents[0]
	sink := a.gradSink()
	if sink == nil {
		return
	}
	cd, gd, dd := v.auxT.Data(), g.Data(), sink.Data()
	for i := range dd {
		dd[i] += gd[i] / cd[i]
	}
}

// Log returns ln(max(a, floor)) elementwise. The floor (1e-12) guards
// against log(0) when probabilities underflow; the gradient uses the
// clamped value.
func Log(a *Variable) *Variable {
	const floor = 1e-12
	ar := arenaOf(a)
	clamped := ar.rawLike(a.value)
	tensor.ApplyInto(clamped, a.value, func(v float64) float64 {
		if v < floor {
			return floor
		}
		return v
	})
	out := ar.rawLike(a.value)
	tensor.ApplyInto(out, clamped, math.Log)
	if !a.requiresGrad {
		return constIn(ar, out)
	}
	n := newNode(ar, out, logBack, a)
	n.auxT = clamped
	return n
}

// nllBack scatters −g/N into the label positions saved in auxI.
func nllBack(v *Variable, g *tensor.Tensor) {
	logProbs := v.parents[0]
	sink := logProbs.gradSink()
	if sink == nil {
		return
	}
	labels := v.auxI
	d := logProbs.value.Dim(1)
	gv := g.Data()[0] / float64(len(labels))
	dd := sink.Data()
	for i, y := range labels {
		dd[i*d+y] += -gv
	}
}

// NLL computes the negative log-likelihood −(1/N)·Σᵢ logProbs[i, labels[i]]
// over an (N×D) matrix of log-probabilities. The label slice is retained
// for the backward pass; callers must not mutate it before Backward.
func NLL(logProbs *Variable, labels []int) *Variable {
	n, d := check2d(logProbs, "NLL")
	if len(labels) != n {
		panic(fmt.Sprintf("ag: NLL got %d labels for %d rows", len(labels), n))
	}
	ar := arenaOf(logProbs)
	lp := logProbs.value.Data()
	s := 0.0
	for i, y := range labels {
		if y < 0 || y >= d {
			panic(fmt.Sprintf("ag: NLL label %d out of range [0,%d)", y, d))
		}
		s -= lp[i*d+y]
	}
	out := ar.tensorRaw(1)
	out.Data()[0] = s / float64(n)
	if !logProbs.requiresGrad {
		return constIn(ar, out)
	}
	node := newNode(ar, out, nllBack, logProbs)
	node.auxI = labels
	return node
}

// CrossEntropy is the standard classification loss: softmax cross-entropy
// between logits (N×D) and integer labels, averaged over the batch.
func CrossEntropy(logits *Variable, labels []int) *Variable {
	return NLL(LogSoftmax(logits), labels)
}

// Accuracy computes the fraction of rows of logits whose argmax equals the
// label. Evaluation-only; no gradients.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("ag: Accuracy wants (N×D) logits, got %v", logits.Shape()))
	}
	rows, cols := logits.Dim(0), logits.Dim(1)
	if rows != len(labels) {
		panic(fmt.Sprintf("ag: Accuracy got %d predictions for %d labels", rows, len(labels)))
	}
	if len(labels) == 0 {
		return 0
	}
	data := logits.Data()
	correct := 0
	for r := 0; r < rows; r++ {
		best, bi := math.Inf(-1), 0
		row := data[r*cols : (r+1)*cols]
		for c, v := range row {
			if v > best {
				best, bi = v, c
			}
		}
		if bi == labels[r] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
