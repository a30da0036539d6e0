package ag

import (
	"fmt"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Conv2d applies a 2-D cross-correlation. x is (N,C,H,W), w is
// (O,C,kh,kw), bias is (O) and may be nil. The batch is lowered into a
// (C·kh·kw)×(N·oh·ow) column matrix so that each pass is a few large
// matrix multiplications — the dominant kernel on a single core — instead
// of N small ones. Every intermediate comes from the tape's arena, so a
// warmed-up step rebuilds them allocation-free.
//
// No lowering outlives the pass that builds it. The forward lowers convTile
// samples at a time (fewer when a tile would pass convBlock elements),
// multiplies and hands each tile back. What the node
// keeps for its backward is its input x, and only when the weight trains:
// the backward lowers x again, one channel block of at most convBlock
// elements at a time, for dW = gY·colᵀ (a block's rows are the lowering of
// its channels, so every dW element is still one ascending sum over the
// whole batch), and forms dX one sample tile at a time (the columns of
// Wᵀ·gY are independent). Every value and gradient is the same float, in
// the same order, as from one whole-batch lowering, so concurrent forwards
// over one batch (the server's teacher ensemble) each lower their own
// tiles on their own arena and agree bit for bit.
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
	chw := c * h * wd

	ar := arenaOf(x, w, bias)
	wmat := ar.T.View(w.value, o, ckk)
	xd := x.value.Data()

	// A tile's lowering (forward) or column gradient (backward dX) holds
	// at most convTile samples, and no more than fit in convBlock.
	tile := max(1, min(n, convTile, convBlock/(ckk*sp)))
	out := ar.T.NewRaw(n, o, oh, ow)
	od := out.Data()
	var bd []float64
	if bias != nil {
		bd = bias.value.Data()
	}
	for s0 := 0; s0 < n; s0 += tile {
		ns := min(tile, n-s0)
		tsp := ns * sp
		// Each sample goes straight into its columns: no staging buffer.
		col := ar.T.NewRaw(ckk, tsp)
		for s := 0; s < ns; s++ {
			tensor.Im2ColStrided(xd[(s0+s)*chw:(s0+s+1)*chw], c, h, wd, kh, kw, stride, pad, col.Data(), tsp, s*sp)
		}
		y := ar.T.NewRaw(o, tsp)
		tensor.MatMulInto(y, wmat, col)
		ar.T.Release(col)
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
		ar.T.Release(y)
	}

	if !ar.records(x, w, bias) {
		return constIn(ar, out)
	}
	node := record(ar, out, func(_ *Variable, g *tensor.Tensor) {
		gd := g.Data()
		// Sinks first: a gradient buffer created here outlives this call,
		// the scratch below does not, and the scratch then comes and goes
		// like a stack.
		wsink, xsink := w.gradSink(), x.gradSink()
		if wsink != nil {
			// dW += gY · colᵀ, a channel block of the lowering at a time.
			// The kernel forms each block's products in registers; they go
			// into dW by the single add the whole-matrix accumulate made.
			gy := ar.T.NewRaw(o, nsp)
			gatherConvGrad(gy.Data(), gd, o, 0, n, sp)
			xd := x.value.Data()
			kk := kh * kw
			cb := max(1, min(c, convBlock/(kk*nsp)))
			wsd := wsink.Data()
			for c0 := 0; c0 < c; c0 += cb {
				nc := min(cb, c-c0)
				rows := nc * kk
				col := ar.T.NewRaw(rows, nsp)
				cd := col.Data()
				for s := 0; s < n; s++ {
					src := xd[s*chw+c0*h*wd : s*chw+(c0+nc)*h*wd]
					tensor.Im2ColStrided(src, nc, h, wd, kh, kw, stride, pad, cd, nsp, s*sp)
				}
				part := ar.T.NewRaw(o, rows)
				tensor.MatMulTransBInto(part, gy, col)
				pd := part.Data()
				for oc := 0; oc < o; oc++ {
					dst := wsd[oc*ckk+c0*kk : oc*ckk+c0*kk+rows]
					for i, v := range pd[oc*rows : (oc+1)*rows] {
						dst[i] += v
					}
				}
				ar.T.Release(part)
				ar.T.Release(col)
			}
			ar.T.Release(gy)
		}
		if xsink != nil {
			// dX += col2im(Wᵀ · gY), a sample tile at a time. col2im
			// accumulates several column entries into one image element,
			// so each tile scatters into zeroed scratch and accumulates
			// into dX once.
			xsd := xsink.Data()
			for s0 := 0; s0 < n; s0 += tile {
				ns := min(tile, n-s0)
				tsp := ns * sp
				gy := ar.T.NewRaw(o, tsp)
				gatherConvGrad(gy.Data(), gd, o, s0, ns, sp)
				dcol := ar.T.NewRaw(ckk, tsp)
				tensor.MatMulTransAInto(dcol, wmat, gy)
				dcd := dcol.Data()
				dx := ar.T.New(ns, c, h, wd)
				dxd := dx.Data()
				for s := 0; s < ns; s++ {
					tensor.Col2ImStrided(dcd, c, h, wd, kh, kw, stride, pad, dxd[s*chw:(s+1)*chw], tsp, s*sp)
				}
				dst := xsd[s0*chw : (s0+ns)*chw]
				for i, v := range dxd {
					dst[i] += v
				}
				ar.T.Release(dx)
				ar.T.Release(dcol)
				ar.T.Release(gy)
			}
		}
		if bias != nil {
			if sink := bias.gradSink(); sink != nil {
				// db += Σ gY over the batch, in the order of its (o × nsp)
				// layout.
				sd := sink.Data()
				for oc := 0; oc < o; oc++ {
					sum := 0.0
					for s := 0; s < n; s++ {
						for _, v := range gd[(s*o+oc)*sp : (s*o+oc+1)*sp] {
							sum += v
						}
					}
					sd[oc] += sum
				}
			}
		}
	}, x, w, bias)
	if w.requiresGrad {
		node.reads(x)
	}
	return node
}

// convTile is how many samples a lowering (forward) or a column gradient
// (backward dX) is built for at once. MatMulInto and MatMulTransAInto form
// every output element in ascending-k order whatever the column count, so
// tiling the batch changes no bit of the result.
const convTile = 16

// convBlock bounds, in elements (1 MiB of float64), a forward tile's
// lowering, a dX tile's column gradient and the channel block of the
// lowering the dW backward builds at once; each holds at least one sample
// or one channel.
const convBlock = 1 << 17

// gatherConvGrad copies samples [s0, s0+ns) of the output gradient gd,
// laid out (N, O, sp), into dst in the (O × ns·sp) layout of a lowering.
func gatherConvGrad(dst, gd []float64, o, s0, ns, sp int) {
	tsp := ns * sp
	for oc := 0; oc < o; oc++ {
		for s := 0; s < ns; s++ {
			copy(dst[oc*tsp+s*sp:oc*tsp+(s+1)*sp], gd[((s0+s)*o+oc)*sp:((s0+s)*o+oc+1)*sp])
		}
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
	out := ar.T.NewRaw(n, c, oh, ow)
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
			dx = ar.T.New(n, c, h, wd)
		}
		if w.requiresGrad {
			dw = ar.T.New(c, kh, kw)
		}
		if bias != nil && bias.requiresGrad {
			db = ar.T.New(c)
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
			ar.T.Release(dx)
		}
		if dw != nil {
			w.accum(dw)
			ar.T.Release(dw)
		}
		if db != nil {
			bias.accum(db)
			ar.T.Release(db)
		}
	}, x, w, bias)
}
