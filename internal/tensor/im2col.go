package tensor

import "fmt"

// ConvOutSize returns the spatial output size of a convolution over an
// input of size in with kernel k, stride and padding. It panics if the
// configuration yields a non-positive output.
func ConvOutSize(in, k, stride, pad int) int {
	if stride <= 0 {
		panic(fmt.Sprintf("tensor: non-positive stride %d", stride))
	}
	out := (in+2*pad-k)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: conv output size %d for in=%d k=%d stride=%d pad=%d", out, in, k, stride, pad))
	}
	return out
}

// oxRange returns the [lo, hi) range of output positions whose input
// column ox*stride + kx - pad falls inside [0, w); positions outside the
// range read the zero padding.
func oxRange(ow, w, stride, kx, pad int) (lo, hi int) {
	// ox*stride + kx - pad >= 0  →  ox >= ceil((pad-kx)/stride)
	lo = 0
	if d := pad - kx; d > 0 {
		lo = (d + stride - 1) / stride
	}
	// ox*stride + kx - pad <= w-1  →  ox <= (w-1-kx+pad)/stride
	hi = ow
	if d := w - 1 - kx + pad; d < 0 {
		hi = 0
	} else if q := d/stride + 1; q < ow {
		hi = q
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Im2ColStrided expands one image (c×h×w, row-major in src) into a
// column matrix of (c*kh*kw) rows of oh*ow, where oh and ow are the
// convolution output sizes; elements read from the zero padding region
// are 0. Row r of the column matrix is written at
// dst[r*rowStride+colOff :]. Batched convolutions use it to expand every
// sample directly into its columns of the shared (c·kh·kw)×(N·oh·ow)
// matrix, with no per-sample staging buffer. Interior output positions — the bulk, for
// small paddings — are contiguous row segments and move with copy (or a
// tight strided loop when stride > 1); only the padding fringes write
// zeros element by element.
func Im2ColStrided(src []float64, c, h, w, kh, kw, stride, pad int, dst []float64, rowStride, colOff int) {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(src) != c*h*w {
		panic(fmt.Sprintf("tensor: Im2ColStrided src length %d, want %d", len(src), c*h*w))
	}
	// The valid ox range depends only on kx and the valid oy range only on
	// ky, so both are hoisted out of the channel loop (oxRange costs two
	// integer divisions — per element it would dominate the gather). The
	// backing arrays live on the stack for every realistic kernel size.
	var kxBuf, kyBuf [2 * 16]int
	kxLo, kxHi := kernelRanges(kxBuf[:], kw, ow, w, stride, pad)
	kyLo, kyHi := kernelRanges(kyBuf[:], kh, oh, h, stride, pad)
	r := 0
	for cc := 0; cc < c; cc++ {
		chanBase := cc * h * w
		for ky := 0; ky < kh; ky++ {
			oyLo, oyHi := kyLo[ky], kyHi[ky]
			for kx := 0; kx < kw; kx++ {
				oxLo, oxHi := kxLo[kx], kxHi[kx]
				base := r*rowStride + colOff
				r++
				for oy := 0; oy < oyLo; oy++ {
					drow := dst[base+oy*ow : base+oy*ow+ow]
					for ox := range drow {
						drow[ox] = 0
					}
				}
				srcOff := chanBase + (oyLo*stride+ky-pad)*w + kx - pad
				for oy := oyLo; oy < oyHi; oy++ {
					drow := dst[base+oy*ow : base+oy*ow+ow]
					for ox := 0; ox < oxLo; ox++ {
						drow[ox] = 0
					}
					if stride == 1 {
						srcRow := src[srcOff+oxLo : srcOff+oxHi]
						for i, v := range srcRow {
							drow[oxLo+i] = v
						}
					} else {
						for ox := oxLo; ox < oxHi; ox++ {
							drow[ox] = src[srcOff+ox*stride]
						}
					}
					for ox := oxHi; ox < ow; ox++ {
						drow[ox] = 0
					}
					srcOff += stride * w
				}
				for oy := oyHi; oy < oh; oy++ {
					drow := dst[base+oy*ow : base+oy*ow+ow]
					for ox := range drow {
						drow[ox] = 0
					}
				}
			}
		}
	}
}

// kernelRanges precomputes, for every kernel offset, the output-position
// range whose input index stays in bounds (see oxRange). buf provides the
// backing storage (2k ints) when large enough, keeping the hot path
// allocation-free.
func kernelRanges(buf []int, k, out, in, stride, pad int) (lo, hi []int) {
	if len(buf) >= 2*k {
		lo, hi = buf[:k:k], buf[k:2*k]
	} else {
		lo, hi = make([]int, k), make([]int, k)
	}
	for i := 0; i < k; i++ {
		lo[i], hi[i] = oxRange(out, in, stride, i, pad)
	}
	return lo, hi
}

// Col2ImStrided is the adjoint of Im2ColStrided: it scatters
// (accumulates) the column matrix whose row r starts at
// col[r*rowStride+colOff :] back into the image buffer dst, of length
// c*h*w. dst is accumulated into, not overwritten. The accumulation
// order over (channel, ky, kx, oy, ox) is the same for every layout, so
// gradients are bit-identical whatever rowStride and colOff are.
func Col2ImStrided(col []float64, c, h, w, kh, kw, stride, pad int, dst []float64, rowStride, colOff int) {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	if len(dst) != c*h*w {
		panic(fmt.Sprintf("tensor: Col2ImStrided dst length %d, want %d", len(dst), c*h*w))
	}
	r := 0
	for cc := 0; cc < c; cc++ {
		chanBase := cc * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				oxLo, oxHi := oxRange(ow, w, stride, kx, pad)
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					crow := col[r*rowStride+colOff+oy*ow : r*rowStride+colOff+(oy+1)*ow]
					rowBase := chanBase + iy*w
					if stride == 1 {
						base := rowBase + kx - pad
						for ox := oxLo; ox < oxHi; ox++ {
							dst[base+ox] += crow[ox]
						}
					} else {
						for ox := oxLo; ox < oxHi; ox++ {
							dst[rowBase+ox*stride+kx-pad] += crow[ox]
						}
					}
				}
				r++
			}
		}
	}
}
