package ag

import (
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

func bitsEq(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s: elem %d differs: %v vs %v", name, i, gd[i], wd[i])
		}
	}
}

// TestMirrorGradBitIdentical pins the mirror node's pass-through backward
// to a direct tape: same value, bit-identical gradient. This is the unit
// form of the property the server's golden fingerprints pin end to end —
// re-rooting a shared batch onto a worker arena must not perturb a single
// gradient bit.
func TestMirrorGradBitIdentical(t *testing.T) {
	xt := tensor.New(4, 3)
	tensor.FillNormal(xt, 0, 1, tensor.NewRand(7))

	direct := NewArena()
	xd := NewVarIn(direct, xt.Clone(), true)
	Backward(SumAll(Mul(xd, xd)))

	phase, worker := NewArena(), NewArena()
	xm := NewVarIn(phase, xt.Clone(), true)
	mirrored := MirrorIn(worker, xm)
	if mirrored.Value() != xm.Value() {
		t.Fatal("mirror must share the parent's value tensor")
	}
	Backward(SumAll(Mul(mirrored, mirrored)))

	bitsEq(t, "mirror grad", xm.Grad(), xd.Grad())
}

// TestMirrorConstDegrades checks a no-grad parent yields a constant
// mirror: nothing taped, no gradient machinery engaged.
func TestMirrorConstDegrades(t *testing.T) {
	xt := tensor.New(2, 2)
	a, b := NewArena(), NewArena()
	x := ConstIn(a, xt)
	m := MirrorIn(b, x)
	if m.RequiresGrad() {
		t.Fatal("mirror of a constant must not require grad")
	}
	if m.Value() != xt {
		t.Fatal("mirror must share the value tensor")
	}
}
