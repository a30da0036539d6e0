package ag

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Conv2d applies a 2-D cross-correlation. x is (N,C,H,W), w is
// (O,C,kh,kw), bias is (O) and may be nil. The whole batch is lowered into
// a single (C·kh·kw)×(N·oh·ow) column matrix so that forward and backward
// are each one large matrix multiplication — the dominant kernel on a
// single core — instead of N small ones. The column matrix and every other
// intermediate come from the tape's arena, so a warmed-up step rebuilds
// them allocation-free.
//
// The node owns its lowering and hands each buffer back at its last read:
// the GEMM staging y after the copy-out; the column matrix right after the
// forward GEMM when no dW will read it (frozen weight, or a ForwardOnly
// arena) — and then it is never whole: convTile samples are lowered,
// multiplied and handed back at a time — otherwise right after the dW
// product, so dcol, the same length, lands in the buffer col just vacated;
// gy, dcol and dx when the backward returns. The one lowering the node
// does not own is that of the arena's shared ColMemo batch: it is built
// once for all concurrent forwards over that batch, lives in the memo's
// arena, and no reader releases it.
func Conv2d(x, w, bias *Variable, stride, pad int) *Variable {
	if x.value.Dims() != 4 || w.value.Dims() != 4 || x.value.Dim(1) != w.value.Dim(1) {
		panic(fmt.Sprintf("ag: Conv2d shape mismatch: x %v, w %v", x.Shape(), w.Shape()))
	}
	n, c, h, wd := x.value.Dim(0), x.value.Dim(1), x.value.Dim(2), x.value.Dim(3)
	o, kh, kw := w.value.Dim(0), w.value.Dim(2), w.value.Dim(3)
	oh := tensor.ConvOutSize(h, kh, stride, pad)
	ow := tensor.ConvOutSize(wd, kw, stride, pad)
	ckk := c * kh * kw
	sp := oh * ow
	nsp := n * sp

	ar := arenaOf(x, w, bias)
	wmat := ar.view(w.value, o, ckk)
	xd := x.value.Data()
	records := ar.records(x, w, bias)

	key := convColKey{x: x.value, c: c, h: h, w: wd, kh: kh, kw: kw, stride: stride, pad: pad}
	owned := ar == nil || ar.shared == nil || !ar.shared.covers(x.value)
	// A lowering the node owns and no dW will read is transient: it is
	// built convTile samples at a time, each tile going back to the arena
	// once its GEMM has run.
	transient := owned && !(records && w.requiresGrad)
	tile := n
	if transient {
		tile = min(n, convTile)
	}
	out := ar.tensorRaw(n, o, oh, ow)
	od := out.Data()
	var bd []float64
	if bias != nil {
		bd = bias.value.Data()
	}
	var col *tensor.Tensor // the whole batch's lowering, kept for dW
	for s0 := 0; s0 < n; s0 += tile {
		ns := min(tile, n-s0)
		tsp := ns * sp
		if owned {
			col = ar.tensorRaw(ckk, tsp)
			fillConvCol(col.Data(), key, xd[s0*c*h*wd:], ns, sp, tsp)
		} else {
			col = ar.shared.col(key, xd, n, sp, nsp, ckk)
		}
		y := ar.tensorRaw(o, tsp)
		tensor.MatMulInto(y, wmat, col)
		if transient {
			ar.release(col)
		}
		yd := y.Data()
		for oc := 0; oc < o; oc++ {
			b := 0.0
			if bd != nil {
				b = bd[oc]
			}
			for s := 0; s < ns; s++ {
				src := yd[oc*tsp+s*sp : oc*tsp+(s+1)*sp]
				dst := od[((s0+s)*o+oc)*sp : ((s0+s)*o+oc+1)*sp]
				if b == 0 {
					copy(dst, src)
					continue
				}
				for i, v := range src {
					dst[i] = v + b
				}
			}
		}
		ar.release(y)
	}

	if !records {
		return constIn(ar, out)
	}
	return newNode(ar, out, func(_ *Variable, g *tensor.Tensor) {
		gd := g.Data()
		// Sinks first: a gradient buffer created here outlives this call,
		// the scratch below does not, and the scratch then comes and goes
		// like a stack.
		wsink, xsink := w.gradSink(), x.gradSink()
		// Gather the output gradient into the (o × nsp) layout.
		gy := ar.tensorRaw(o, nsp)
		gyd := gy.Data()
		for oc := 0; oc < o; oc++ {
			for s := 0; s < n; s++ {
				copy(gyd[oc*nsp+s*sp:oc*nsp+(s+1)*sp], gd[(s*o+oc)*sp:(s*o+oc+1)*sp])
			}
		}
		if wsink != nil {
			// dW += gY · colᵀ over the forward's column matrix, its last
			// read. The accumulate kernel forms each product sum in
			// registers before the single add into the gradient buffer.
			tensor.MatMulTransBAccInto(ar.view(wsink, o, ckk), gy, col)
			if owned {
				ar.release(col)
			}
		}
		if xsink != nil {
			// dCol = Wᵀ · gY, scattered back per sample. Col2Im accumulates
			// multiple column entries into one image element, so it scatters
			// into zeroed arena scratch first and accumulates once.
			dcol := ar.tensorRaw(ckk, nsp)
			tensor.MatMulTransAInto(dcol, wmat, gy)
			dcd := dcol.Data()
			dx := ar.tensorZ(n, c, h, wd)
			dxd := dx.Data()
			for s := 0; s < n; s++ {
				tensor.Col2ImStrided(dcd, c, h, wd, kh, kw, stride, pad, dxd[s*c*h*wd:(s+1)*c*h*wd], nsp, s*sp)
			}
			tensor.AccumInto(xsink, dx)
			ar.release(dcol)
			ar.release(dx)
		}
		if bias != nil {
			if sink := bias.gradSink(); sink != nil {
				sd := sink.Data()
				for oc := 0; oc < o; oc++ {
					sum := 0.0
					for _, v := range gyd[oc*nsp : (oc+1)*nsp] {
						sum += v
					}
					sd[oc] += sum
				}
			}
		}
		ar.release(gy)
	}, x, w, bias)
}

// convTile is how many samples of a transient lowering are built at once.
// MatMulInto forms every output element in ascending-k order whatever the
// column count, so tiling the batch changes no bit of the output.
const convTile = 16

// fillConvCol expands the batch into the column matrix, one sample at a
// time straight into its columns — no per-sample staging buffer, no
// second copy.
func fillConvCol(cd []float64, key convColKey, xd []float64, n, sp, nsp int) {
	chw := key.c * key.h * key.w
	for s := 0; s < n; s++ {
		tensor.Im2ColStrided(xd[s*chw:(s+1)*chw], key.c, key.h, key.w, key.kh, key.kw, key.stride, key.pad, cd, nsp, s*sp)
	}
}

// DepthwiseConv2d applies one kh×kw filter per input channel (groups ==
// channels). x is (N,C,H,W), w is (C,kh,kw), bias is (C) and may be nil.
func DepthwiseConv2d(x, w, bias *Variable, stride, pad int) *Variable {
	if x.value.Dims() != 4 || w.value.Dims() != 3 || x.value.Dim(1) != w.value.Dim(0) {
		panic(fmt.Sprintf("ag: DepthwiseConv2d shape mismatch: x %v, w %v", x.Shape(), w.Shape()))
	}
	n, c, h, wd := x.value.Dim(0), x.value.Dim(1), x.value.Dim(2), x.value.Dim(3)
	kh, kw := w.value.Dim(1), w.value.Dim(2)
	oh := tensor.ConvOutSize(h, kh, stride, pad)
	ow := tensor.ConvOutSize(wd, kw, stride, pad)

	ar := arenaOf(x, w, bias)
	out := ar.tensorRaw(n, c, oh, ow)
	xd, wdat, od := x.value.Data(), w.value.Data(), out.Data()
	var bd []float64
	if bias != nil {
		bd = bias.value.Data()
	}

	for sc := 0; sc < n*c; sc++ {
		ch := sc % c
		src := xd[sc*h*wd : (sc+1)*h*wd]
		dst := od[sc*oh*ow : (sc+1)*oh*ow]
		ker := wdat[ch*kh*kw : (ch+1)*kh*kw]
		b := 0.0
		if bd != nil {
			b = bd[ch]
		}
		di := 0
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := b
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					rowBase := iy * wd
					kerRow := ker[ky*kw : (ky+1)*kw]
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= wd {
							continue
						}
						s += src[rowBase+ix] * kerRow[kx]
					}
				}
				dst[di] = s
				di++
			}
		}
	}

	if !ar.records(x, w, bias) {
		return constIn(ar, out)
	}
	return newNode(ar, out, func(_ *Variable, g *tensor.Tensor) {
		gd := g.Data()
		// The scatter accumulates many output positions into one input /
		// kernel element, so it runs over zeroed arena scratch and each
		// gradient buffer receives one accumulation pass — the historical
		// contribution order, allocation-free.
		var dx, dw, db *tensor.Tensor
		if x.requiresGrad {
			dx = ar.tensorZ(n, c, h, wd)
		}
		if w.requiresGrad {
			dw = ar.tensorZ(c, kh, kw)
		}
		if bias != nil && bias.requiresGrad {
			db = ar.tensorZ(c)
		}
		for s := 0; s < n; s++ {
			for ch := 0; ch < c; ch++ {
				sc := s*c + ch
				src := xd[sc*h*wd : (sc+1)*h*wd]
				gout := gd[sc*oh*ow : (sc+1)*oh*ow]
				ker := wdat[ch*kh*kw : (ch+1)*kh*kw]
				gi := 0
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						gv := gout[gi]
						gi++
						if gv == 0 {
							continue
						}
						if db != nil {
							db.Data()[ch] += gv
						}
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								if dw != nil {
									dw.Data()[ch*kh*kw+ky*kw+kx] += gv * src[iy*wd+ix]
								}
								if dx != nil {
									dx.Data()[sc*h*wd+iy*wd+ix] += gv * ker[ky*kw+kx]
								}
							}
						}
					}
				}
			}
		}
		if dx != nil {
			x.accum(dx)
			ar.release(dx)
		}
		if dw != nil {
			w.accum(dw)
			ar.release(dw)
		}
		if db != nil {
			bias.accum(db)
			ar.release(db)
		}
	}, x, w, bias)
}
