package ag

import (
	"math"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// The backward implementations in this file are shared static functions —
// assigning them to a node costs no allocation. They read their operands
// from the node's recorded parents and aux fields.

func addBack(v *Variable, g *tensor.Tensor) {
	v.parents[0].accum(g)
	v.parents[1].accum(g)
}

// Add returns a + b (same shape).
func Add(a, b *Variable) *Variable {
	ar := arenaOf(a, b)
	out := ar.rawLike(a.value)
	tensor.AddInto(out, a.value, b.value)
	if !anyRequires(a, b) {
		return constIn(ar, out)
	}
	return newNode(ar, out, addBack, a, b)
}

func subBack(v *Variable, g *tensor.Tensor) {
	v.parents[0].accum(g)
	if sink := v.parents[1].gradSink(); sink != nil {
		tensor.AxpyInto(sink, -1, g)
	}
}

// Sub returns a - b (same shape).
func Sub(a, b *Variable) *Variable {
	ar := arenaOf(a, b)
	out := ar.rawLike(a.value)
	tensor.SubInto(out, a.value, b.value)
	if !anyRequires(a, b) {
		return constIn(ar, out)
	}
	return newNode(ar, out, subBack, a, b)
}

func mulBack(v *Variable, g *tensor.Tensor) {
	a, b := v.parents[0], v.parents[1]
	if sink := a.gradSink(); sink != nil {
		tensor.MulAccInto(sink, g, b.value)
	}
	if sink := b.gradSink(); sink != nil {
		tensor.MulAccInto(sink, g, a.value)
	}
}

// Mul returns the elementwise product a ⊙ b (same shape).
func Mul(a, b *Variable) *Variable {
	ar := arenaOf(a, b)
	out := ar.rawLike(a.value)
	tensor.MulInto(out, a.value, b.value)
	if !anyRequires(a, b) {
		return constIn(ar, out)
	}
	return newNode(ar, out, mulBack, a, b)
}

func scaleBack(v *Variable, g *tensor.Tensor) {
	if sink := v.parents[0].gradSink(); sink != nil {
		tensor.AxpyInto(sink, v.aux0, g)
	}
}

// Scale returns s * a for a scalar constant s.
func Scale(s float64, a *Variable) *Variable {
	ar := arenaOf(a)
	out := ar.rawLike(a.value)
	tensor.ScaleInto(out, s, a.value)
	if !a.requiresGrad {
		return constIn(ar, out)
	}
	n := newNode(ar, out, scaleBack, a)
	n.aux0 = s
	return n
}

func absBack(v *Variable, g *tensor.Tensor) {
	a := v.parents[0]
	sink := a.gradSink()
	if sink == nil {
		return
	}
	av, gd, dd := a.value.Data(), g.Data(), sink.Data()
	for i, x := range av {
		switch {
		case x > 0:
			dd[i] += gd[i]
		case x < 0:
			dd[i] += -gd[i]
		}
	}
}

// Abs returns |a| elementwise, with the subgradient sign(a) (0 at 0).
func Abs(a *Variable) *Variable {
	ar := arenaOf(a)
	out := ar.rawLike(a.value)
	tensor.ApplyInto(out, a.value, math.Abs)
	if !a.requiresGrad {
		return constIn(ar, out)
	}
	return newNode(ar, out, absBack, a)
}

func sumAllBack(v *Variable, g *tensor.Tensor) {
	sink := v.parents[0].gradSink()
	if sink == nil {
		return
	}
	gv := g.Data()[0]
	dd := sink.Data()
	for i := range dd {
		dd[i] += gv
	}
}

// SumAll reduces a to a scalar containing the sum of all elements.
func SumAll(a *Variable) *Variable {
	ar := arenaOf(a)
	out := ar.tensorRaw(1)
	out.Data()[0] = tensor.Sum(a.value)
	if !a.requiresGrad {
		return constIn(ar, out)
	}
	return newNode(ar, out, sumAllBack, a)
}

// MeanAll reduces a to a scalar containing the arithmetic mean.
func MeanAll(a *Variable) *Variable {
	return Scale(1/float64(a.value.Len()), SumAll(a))
}
