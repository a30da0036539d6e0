package ag

import (
	"fmt"
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// convRef is the whole-lowering convolution the streamed Conv2d must
// match bit for bit: the batch lowered into one (C·kh·kw)×(N·oh·ow)
// column matrix, y = W·col, dW = 0 + gY·colᵀ (each element one
// register-formed sum added once), dcol = Wᵀ·gY whole, scattered per
// sample into zeroed scratch and added once into a zero dX, db = 0 + the
// row sums of gY.
func convRef(x, w, b, g *tensor.Tensor, stride, pad int) (y, dw, dx, db *tensor.Tensor) {
	n, c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	o, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	oh, ow := tensor.ConvOutSize(h, kh, stride, pad), tensor.ConvOutSize(wd, kw, stride, pad)
	ckk, sp, chw := c*kh*kw, oh*ow, c*h*wd
	nsp := n * sp
	col := tensor.New(ckk, nsp)
	for s := 0; s < n; s++ {
		tensor.Im2ColStrided(x.Data()[s*chw:(s+1)*chw], c, h, wd, kh, kw, stride, pad, col.Data(), nsp, s*sp)
	}
	wmat := w.Reshape(o, ckk)
	ym := tensor.New(o, nsp)
	tensor.MatMulInto(ym, wmat, col)
	y = tensor.New(n, o, oh, ow)
	gy := tensor.New(o, nsp)
	for oc := 0; oc < o; oc++ {
		for s := 0; s < n; s++ {
			for i := 0; i < sp; i++ {
				y.Data()[(s*o+oc)*sp+i] = ym.Data()[oc*nsp+s*sp+i] + b.Data()[oc]
				gy.Data()[oc*nsp+s*sp+i] = g.Data()[(s*o+oc)*sp+i]
			}
		}
	}
	dw = tensor.New(o, ckk)
	tensor.MatMulTransBAccInto(dw, gy, col)
	dw = dw.Reshape(w.Shape()...)
	dcol := tensor.New(ckk, nsp)
	tensor.MatMulTransAInto(dcol, wmat, gy)
	scatter := tensor.New(n, c, h, wd)
	for s := 0; s < n; s++ {
		tensor.Col2ImStrided(dcol.Data(), c, h, wd, kh, kw, stride, pad, scatter.Data()[s*chw:(s+1)*chw], nsp, s*sp)
	}
	dx = tensor.New(n, c, h, wd)
	tensor.AccumInto(dx, scatter)
	db = tensor.New(o)
	for oc := 0; oc < o; oc++ {
		sum := 0.0
		for _, v := range gy.Data()[oc*nsp : (oc+1)*nsp] {
			sum += v
		}
		db.Data()[oc] += sum
	}
	return y, dw, dx, db
}

// TestConvStreamedBitIdentical pins the streamed Conv2d — a forward
// lowered convTile samples at a time, a dW backward over channel blocks of
// at most convBlock elements re-lowered from the kept input, a dX backward
// a sample tile at a time — to the whole-lowering reference bit for bit:
// output, dW, dX and db, over 3×3 pad 1, 5×5 pad 0, stride 2 and 1×1
// kernels, 1 to 64 input channels and batches that land on and cross the
// tile and block edges. It runs on an arena, so any scratch read after its
// release reads NaN.
func TestConvStreamedBitIdentical(t *testing.T) {
	const o, hw = 5, 8
	geoms := []struct{ k, stride, pad int }{{3, 1, 1}, {5, 1, 0}, {3, 2, 1}, {1, 1, 0}}
	ar := NewArena()
	for _, gm := range geoms {
		for _, c := range []int{1, 3, 24, 32, 64} {
			for _, n := range []int{1, 3, 16, 17, 64} {
				name := fmt.Sprintf("k%d_s%d_p%d_c%d_n%d", gm.k, gm.stride, gm.pad, c, n)
				seed := uint64(1000*gm.k + 100*c + n)
				mk := func(seed uint64, shape ...int) *tensor.Tensor {
					v := tensor.New(shape...)
					tensor.FillNormal(v, 0, 1, tensor.NewRand(seed))
					return v
				}
				xt, wt, bt := mk(seed, n, c, hw, hw), mk(seed+1, o, c, gm.k, gm.k), mk(seed+2, o)
				oh := tensor.ConvOutSize(hw, gm.k, gm.stride, gm.pad)
				gt := mk(seed+3, n, o, oh, oh)

				wantY, wantDW, wantDX, wantDB := convRef(xt, wt, bt, gt, gm.stride, gm.pad)
				x, w, b := NewVarIn(ar, xt, true), Param(wt), Param(bt)
				y := Conv2d(x, w, b, gm.stride, gm.pad)
				bitsEq(t, name+" output", y.Value(), wantY)
				Backward(SumAll(Mul(y, Const(gt))))
				bitsEq(t, name+" dW", w.Grad(), wantDW)
				bitsEq(t, name+" dX", x.Grad(), wantDX)
				bitsEq(t, name+" db", b.Grad(), wantDB)
				ar.Reset()
			}
		}
	}
}
