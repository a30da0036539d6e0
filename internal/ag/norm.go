package ag

import (
	"fmt"
	"math"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// BatchNorm2d normalizes an (N,C,H,W) Variable per channel.
//
// In training mode it uses batch statistics and updates the running
// mean/variance buffers in place with the given momentum (newRunning =
// (1-momentum)*running + momentum*batch). In evaluation mode it uses the
// running buffers and is a pure affine transform. gamma and beta have
// length C. All per-channel statistics and the saved x̂ activations are
// arena scratch, recycled with the step; x̂ — a full activation — is saved
// only when the backward will read it: for dγ, or for the training-mode
// dX. A frozen evaluation-mode layer (every teacher, F in the generator
// step) and every ForwardOnly pass write the output alone.
func BatchNorm2d(x, gamma, beta *Variable, runMean, runVar *tensor.Tensor, training bool, momentum, eps float64) *Variable {
	if x.value.Dims() != 4 {
		panic(fmt.Sprintf("ag: BatchNorm2d wants (N,C,H,W), got %v", x.Shape()))
	}
	n, c, h, w := x.value.Dim(0), x.value.Dim(1), x.value.Dim(2), x.value.Dim(3)
	if gamma.value.Len() != c || beta.value.Len() != c || runMean.Len() != c || runVar.Len() != c {
		panic(fmt.Sprintf("ag: BatchNorm2d parameter length mismatch for C=%d", c))
	}
	sp := h * w
	m := float64(n * sp) // elements per channel

	ar := arenaOf(x, gamma, beta)
	mean := ar.floatsRaw(c)
	varr := ar.floatsRaw(c)
	xd := x.value.Data()
	if training {
		for ch := 0; ch < c; ch++ {
			sum := 0.0
			for smp := 0; smp < n; smp++ {
				plane := xd[(smp*c+ch)*sp : (smp*c+ch+1)*sp]
				for _, v := range plane {
					sum += v
				}
			}
			mu := sum / m
			vs := 0.0
			for smp := 0; smp < n; smp++ {
				plane := xd[(smp*c+ch)*sp : (smp*c+ch+1)*sp]
				for _, v := range plane {
					d := v - mu
					vs += d * d
				}
			}
			mean[ch] = mu
			varr[ch] = vs / m
		}
		rm, rv := runMean.Data(), runVar.Data()
		for ch := 0; ch < c; ch++ {
			rm[ch] = (1-momentum)*rm[ch] + momentum*mean[ch]
			rv[ch] = (1-momentum)*rv[ch] + momentum*varr[ch]
		}
	} else {
		copy(mean, runMean.Data())
		copy(varr, runVar.Data())
	}

	invStd := ar.floatsRaw(c)
	for ch := 0; ch < c; ch++ {
		invStd[ch] = 1 / math.Sqrt(varr[ch]+eps)
	}

	records := ar.records(x, gamma, beta)
	out := ar.tensorRaw(n, c, h, w)
	var xhat []float64
	if records && (gamma.requiresGrad || training && x.requiresGrad) {
		xhat = ar.floatsRaw(len(xd))
	}
	od := out.Data()
	gd, bd := gamma.value.Data(), beta.value.Data()
	for smp := 0; smp < n; smp++ {
		for ch := 0; ch < c; ch++ {
			base := (smp*c + ch) * sp
			mu, is, ga, be := mean[ch], invStd[ch], gd[ch], bd[ch]
			if xhat == nil {
				for i := 0; i < sp; i++ {
					xh := (xd[base+i] - mu) * is
					od[base+i] = ga*xh + be
				}
				continue
			}
			for i := 0; i < sp; i++ {
				xh := (xd[base+i] - mu) * is
				xhat[base+i] = xh
				od[base+i] = ga*xh + be
			}
		}
	}

	if !records {
		return constIn(ar, out)
	}
	return newNode(ar, out, func(_ *Variable, g *tensor.Tensor) {
		gdd := g.Data()
		gsink, bsink, xsink := gamma.gradSink(), beta.gradSink(), x.gradSink()
		// Per-channel reductions Σdy and — where x̂ was saved for them —
		// Σdy·x̂. A frozen evaluation-mode layer reads neither.
		var sumDy, sumDyXhat []float64
		if gsink != nil || bsink != nil || training && xsink != nil {
			sumDy = ar.floats(c)
			sumDyXhat = ar.floats(c)
			for smp := 0; smp < n; smp++ {
				for ch := 0; ch < c; ch++ {
					base := (smp*c + ch) * sp
					sdy, sdx := 0.0, 0.0
					if xhat == nil {
						for i := 0; i < sp; i++ {
							sdy += gdd[base+i]
						}
					} else {
						for i := 0; i < sp; i++ {
							dy := gdd[base+i]
							sdy += dy
							sdx += dy * xhat[base+i]
						}
					}
					sumDy[ch] += sdy
					sumDyXhat[ch] += sdx
				}
			}
		}
		if gsink != nil {
			sd := gsink.Data()
			for ch := 0; ch < c; ch++ {
				sd[ch] += sumDyXhat[ch]
			}
		}
		if bsink != nil {
			sd := bsink.Data()
			for ch := 0; ch < c; ch++ {
				sd[ch] += sumDy[ch]
			}
		}
		if xsink != nil {
			dd := xsink.Data()
			if training {
				// dX += γ/σ · (dy − mean(dy) − x̂·mean(dy·x̂))
				for smp := 0; smp < n; smp++ {
					for ch := 0; ch < c; ch++ {
						base := (smp*c + ch) * sp
						k := gd[ch] * invStd[ch]
						mDy := sumDy[ch] / m
						mDyX := sumDyXhat[ch] / m
						for i := 0; i < sp; i++ {
							dd[base+i] += k * (gdd[base+i] - mDy - xhat[base+i]*mDyX)
						}
					}
				}
			} else {
				// Running statistics are constants: dX += γ/σ · dy.
				for smp := 0; smp < n; smp++ {
					for ch := 0; ch < c; ch++ {
						base := (smp*c + ch) * sp
						k := gd[ch] * invStd[ch]
						for i := 0; i < sp; i++ {
							dd[base+i] += k * gdd[base+i]
						}
					}
				}
			}
		}
	}, x, gamma, beta)
}

// BatchNorm1d normalizes an (N,D) Variable per feature column; semantics
// mirror BatchNorm2d. Used by the generator's fully-connected stem.
func BatchNorm1d(x, gamma, beta *Variable, runMean, runVar *tensor.Tensor, training bool, momentum, eps float64) *Variable {
	if x.value.Dims() != 2 {
		panic(fmt.Sprintf("ag: BatchNorm1d wants (N,D), got %v", x.Shape()))
	}
	n, d := x.value.Dim(0), x.value.Dim(1)
	// Reuse the 2-D implementation by viewing (N,D) as (N,D,1,1).
	x4 := Reshape(x, n, d, 1, 1)
	y := BatchNorm2d(x4, gamma, beta, runMean, runVar, training, momentum, eps)
	return Reshape(y, n, d)
}
