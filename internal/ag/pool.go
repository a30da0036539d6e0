package ag

import (
	"fmt"
	"math"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// MaxPool2d applies k×k max pooling with the given stride over an
// (N,C,H,W) Variable. When a backward will run, argmax positions are
// recorded in the forward pass and reused to scatter gradients.
func MaxPool2d(x *Variable, k, stride int) *Variable {
	if x.value.Dims() != 4 {
		panic(fmt.Sprintf("ag: MaxPool2d wants (N,C,H,W), got %v", x.Shape()))
	}
	n, c, h, w := x.value.Dim(0), x.value.Dim(1), x.value.Dim(2), x.value.Dim(3)
	oh := tensor.ConvOutSize(h, k, stride, 0)
	ow := tensor.ConvOutSize(w, k, stride, 0)
	ar := arenaOf(x)
	out := ar.T.NewRaw(n, c, oh, ow)
	records := ar.records(x)
	var arg []int
	if records {
		arg = ar.T.Ints(n * c * oh * ow) // flat index within the (H,W) plane
	}
	xd, od := x.value.Data(), out.Data()
	fast2x2 := k == 2 && stride == 2 && h >= 2*oh && w >= 2*ow
	for sc := 0; sc < n*c; sc++ {
		src := xd[sc*h*w : (sc+1)*h*w]
		dst := od[sc*oh*ow : (sc+1)*oh*ow]
		if fast2x2 {
			// The ubiquitous 2×2/stride-2 window, unrolled: same scan
			// order as the generic loops (row-major, first max wins), so
			// values and argmaxes are identical.
			for oy := 0; oy < oh; oy++ {
				r0 := src[2*oy*w : 2*oy*w+w]
				r1 := src[(2*oy+1)*w : (2*oy+1)*w+w]
				drow := dst[oy*ow : (oy+1)*ow]
				for ox := 0; ox < ow; ox++ {
					ix := 2 * ox
					best, bi := r0[ix], 2*oy*w+ix
					if v := r0[ix+1]; v > best {
						best, bi = v, 2*oy*w+ix+1
					}
					if v := r1[ix]; v > best {
						best, bi = v, (2*oy+1)*w+ix
					}
					if v := r1[ix+1]; v > best {
						best, bi = v, (2*oy+1)*w+ix+1
					}
					drow[ox] = best
					if arg != nil {
						arg[sc*oh*ow+oy*ow+ox] = bi
					}
				}
			}
			continue
		}
		di := 0
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bi := 0
				for ky := 0; ky < k; ky++ {
					iy := oy*stride + ky
					if iy >= h {
						break
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*stride + kx
						if ix >= w {
							break
						}
						if v := src[iy*w+ix]; v > best {
							best = v
							bi = iy*w + ix
						}
					}
				}
				dst[di] = best
				if arg != nil {
					arg[sc*oh*ow+di] = bi
				}
				di++
			}
		}
	}
	if !records {
		return constIn(ar, out)
	}
	// The backward reads the argmaxes alone — its own buffer.
	node := record(ar, out, maxPoolBack, x)
	node.auxI = arg
	return node
}

// maxPoolBack scatters gradients to the argmax positions saved in auxI.
func maxPoolBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	n, c := x.value.Dim(0), x.value.Dim(1)
	h, w := x.value.Dim(2), x.value.Dim(3)
	oh, ow := v.value.Dim(2), v.value.Dim(3)
	arg := v.auxI
	// Several output cells can share one argmax input, so scatter into
	// zeroed arena scratch and accumulate once (the historical order).
	dx := v.ar.T.NewLike(x.value)
	gd, dd := g.Data(), dx.Data()
	for sc := 0; sc < n*c; sc++ {
		gsrc := gd[sc*oh*ow : (sc+1)*oh*ow]
		a := arg[sc*oh*ow : (sc+1)*oh*ow]
		base := sc * h * w
		for i, gv := range gsrc {
			dd[base+a[i]] += gv
		}
	}
	tensor.AccumInto(sink, dx)
	v.ar.T.Release(dx)
}

// GlobalAvgPool reduces (N,C,H,W) to (N,C) by averaging each channel plane.
func GlobalAvgPool(x *Variable) *Variable {
	if x.value.Dims() != 4 {
		panic(fmt.Sprintf("ag: GlobalAvgPool wants (N,C,H,W), got %v", x.Shape()))
	}
	n, c, h, w := x.value.Dim(0), x.value.Dim(1), x.value.Dim(2), x.value.Dim(3)
	sp := h * w
	inv := 1 / float64(sp)
	ar := arenaOf(x)
	out := ar.T.NewRaw(n, c)
	xd, od := x.value.Data(), out.Data()
	for sc := 0; sc < n*c; sc++ {
		sum := 0.0
		for _, v := range xd[sc*sp : (sc+1)*sp] {
			sum += v
		}
		od[sc] = sum * inv
	}
	if !x.requiresGrad {
		return constIn(ar, out)
	}
	return record(ar, out, globalAvgPoolBack, x) // reads no value
}

// globalAvgPoolBack spreads each channel's mean gradient over its plane.
func globalAvgPoolBack(v *Variable, g *tensor.Tensor) {
	x := v.parents[0]
	sink := x.gradSink()
	if sink == nil {
		return
	}
	n, c := x.value.Dim(0), x.value.Dim(1)
	sp := x.value.Dim(2) * x.value.Dim(3)
	inv := 1 / float64(sp)
	gd, dd := g.Data(), sink.Data()
	for sc := 0; sc < n*c; sc++ {
		gv := gd[sc] * inv
		plane := dd[sc*sp : (sc+1)*sp]
		for i := range plane {
			plane[i] += gv
		}
	}
}
