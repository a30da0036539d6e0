package ag

import (
	"fmt"
	"math"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Like arith.go, every backward here is a shared static function reading
// its state from the node (the forward output is v.value, the input is
// v.parents[0].value), so recording a node allocates nothing. Each op
// declares the one value its backward reads: the rectifiers their input,
// the squashing functions and softmaxes their output.

func reluBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	xd, gd, dd := x.value.Data(), g.Data(), sink.Data()
	for i, val := range xd {
		if val > 0 {
			dd[i] += gd[i]
		}
	}
}

// ReLU returns max(x, 0) elementwise. The hottest activation gets
// dedicated forward/backward loops instead of a generic gated pattern: an
// indirect per-element call is most of the generic version's cost.
func ReLU(x *Variable) *Variable {
	ar := arenaOf(x)
	out := ar.T.NewRawLike(x.value)
	xd, od := x.value.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	n := record(ar, out, reluBack, x)
	n.reads(x)
	return n
}

func relu6Back(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	xd, gd, dd := x.value.Data(), g.Data(), sink.Data()
	for i, val := range xd {
		if val > 0 && val < 6 {
			dd[i] += gd[i]
		}
	}
}

// ReLU6 returns min(max(x,0),6), the activation used by MobileNetV2.
func ReLU6(x *Variable) *Variable {
	ar := arenaOf(x)
	out := ar.T.NewRawLike(x.value)
	tensor.ApplyInto(out, x.value, func(v float64) float64 {
		if v <= 0 {
			return 0
		}
		if v >= 6 {
			return 6
		}
		return v
	})
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	n := record(ar, out, relu6Back, x)
	n.reads(x)
	return n
}

func leakyReLUBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	alpha := v.aux0
	xd, gd, dd := x.value.Data(), g.Data(), sink.Data()
	for i, val := range xd {
		if val > 0 {
			dd[i] += gd[i]
		} else {
			dd[i] += alpha * gd[i]
		}
	}
}

// LeakyReLU returns x where x>0 and alpha*x elsewhere.
func LeakyReLU(x *Variable, alpha float64) *Variable {
	ar := arenaOf(x)
	out := ar.T.NewRawLike(x.value)
	xd, od := x.value.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = alpha * v
		}
	}
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	n := record(ar, out, leakyReLUBack, x)
	n.reads(x)
	n.aux0 = alpha
	return n
}

func tanhBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	od, gd, dd := v.value.Data(), g.Data(), sink.Data()
	for i, y := range od {
		dd[i] += gd[i] * (1 - y*y)
	}
}

// Tanh returns tanh(x) elementwise.
func Tanh(x *Variable) *Variable {
	ar := arenaOf(x)
	out := ar.T.NewRawLike(x.value)
	tensor.ApplyInto(out, x.value, math.Tanh)
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	n := record(ar, out, tanhBack, x)
	n.reads(n)
	return n
}

func sigmoidBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	od, gd, dd := v.value.Data(), g.Data(), sink.Data()
	for i, y := range od {
		dd[i] += gd[i] * y * (1 - y)
	}
}

// Sigmoid returns 1/(1+e^-x) elementwise.
func Sigmoid(x *Variable) *Variable {
	ar := arenaOf(x)
	out := ar.T.NewRawLike(x.value)
	tensor.ApplyInto(out, x.value, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	n := record(ar, out, sigmoidBack, x)
	n.reads(n)
	return n
}

func check2d(x *Variable, what string) (n, d int) {
	if x.value.Dims() != 2 {
		panic(fmt.Sprintf("ag: %s wants (N×D) input, got %v", what, x.Shape()))
	}
	return x.value.Dim(0), x.value.Dim(1)
}

func softmaxBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	n, d := v.value.Dim(0), v.value.Dim(1)
	od, gd, dd := v.value.Data(), g.Data(), sink.Data()
	for r := 0; r < n; r++ {
		orow := od[r*d : (r+1)*d]
		grow := gd[r*d : (r+1)*d]
		drow := dd[r*d : (r+1)*d]
		dot := 0.0
		for c, y := range orow {
			dot += y * grow[c]
		}
		for c, y := range orow {
			drow[c] += y * (grow[c] - dot)
		}
	}
}

// Softmax applies the softmax function to each row of a (N×D) Variable.
func Softmax(x *Variable) *Variable {
	n, d := check2d(x, "Softmax")
	ar := arenaOf(x)
	out := ar.T.NewRaw(n, d)
	softmaxRowsInto(out.Data(), x.value.Data(), n, d)
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	node := record(ar, out, softmaxBack, x)
	node.reads(node)
	return node
}

func logSoftmaxBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	n, d := v.value.Dim(0), v.value.Dim(1)
	od, gd, dd := v.value.Data(), g.Data(), sink.Data()
	for r := 0; r < n; r++ {
		orow := od[r*d : (r+1)*d]
		grow := gd[r*d : (r+1)*d]
		drow := dd[r*d : (r+1)*d]
		gsum := 0.0
		for _, gv := range grow {
			gsum += gv
		}
		for c, lp := range orow {
			drow[c] += grow[c] - math.Exp(lp)*gsum
		}
	}
}

// LogSoftmax applies log∘softmax to each row of a (N×D) Variable using the
// numerically stable shifted formulation.
func LogSoftmax(x *Variable) *Variable {
	n, d := check2d(x, "LogSoftmax")
	ar := arenaOf(x)
	out := ar.T.NewRaw(n, d)
	xd, od := x.value.Data(), out.Data()
	for r := 0; r < n; r++ {
		row := xd[r*d : (r+1)*d]
		orow := od[r*d : (r+1)*d]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		lse := 0.0
		for _, v := range row {
			lse += math.Exp(v - m)
		}
		lse = m + math.Log(lse)
		for c, v := range row {
			orow[c] = v - lse
		}
	}
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	node := record(ar, out, logSoftmaxBack, x)
	node.reads(node)
	return node
}

// softmaxRowsInto writes softmax of each row of src (n rows of d) into dst.
func softmaxRowsInto(dst, src []float64, n, d int) {
	for r := 0; r < n; r++ {
		row := src[r*d : (r+1)*d]
		orow := dst[r*d : (r+1)*d]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for c, v := range row {
			e := math.Exp(v - m)
			orow[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range orow {
			orow[c] *= inv
		}
	}
}

// SoftmaxRowsIn is the softmax of each row of an (N×D) tensor off the
// tape, its output allocated from arena a.
func SoftmaxRowsIn(a *Arena, t *tensor.Tensor) *tensor.Tensor {
	if t.Dims() != 2 {
		panic(fmt.Sprintf("ag: SoftmaxRowsIn wants (N×D), got %v", t.Shape()))
	}
	n, d := t.Dim(0), t.Dim(1)
	out := a.T.NewRaw(n, d)
	softmaxRowsInto(out.Data(), t.Data(), n, d)
	return out
}
