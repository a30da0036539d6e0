package ag

import (
	"math"
	"sync"
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

// TestColMemoSharedAcrossArenas runs the same conv over one batch on two
// worker arenas, one with a trainable weight and a backward: the shared
// memo hands both the identical column tensor (one build, in the memo's
// arena), no reader releases it — not the frozen forward, not the dW that
// is every other lowering's last read — and a non-covered input is lowered
// on the worker's own arena and never reaches the memo.
func TestColMemoSharedAcrossArenas(t *testing.T) {
	xt := tensor.New(2, 1, 6, 6)
	wt := tensor.New(3, 1, 3, 3)
	rng := tensor.NewRand(13)
	tensor.FillNormal(xt, 0, 1, rng)
	tensor.FillNormal(wt, 0, 1, rng)

	phase := NewArena()
	memo := NewColMemo(phase)
	memo.Rebind(xt)

	workers := []*Arena{NewArena(), NewArena()}
	weights := []*Variable{Const(wt.Clone()), Param(wt.Clone())}
	outs := make([]*tensor.Tensor, len(workers))
	var wg sync.WaitGroup
	for i, wa := range workers {
		wa.ShareColMemo(memo)
		wg.Add(1)
		go func(i int, wa *Arena) {
			defer wg.Done()
			y := Conv2d(ConstIn(wa, xt), weights[i], nil, 1, 1)
			outs[i] = y.Value()
			Backward(SumAll(y)) // a no-op on the frozen worker
		}(i, wa)
	}
	wg.Wait()

	bitsEq(t, "shared-memo conv", outs[0], outs[1])
	ref := Conv2d(Const(xt), Param(wt), nil, 1, 1) // heap, no memo
	bitsEq(t, "conv vs heap", outs[0], ref.Value())
	Backward(SumAll(ref))
	bitsEq(t, "dW over the shared lowering vs heap", weights[1].Grad(), ref.parents[1].Grad())

	if len(memo.m) != 1 {
		t.Fatalf("memo holds %d entries, want 1", len(memo.m))
	}
	want := tensor.New(9, 2*6*6)
	for key, col := range memo.m {
		if col.Len() != want.Len() {
			t.Fatalf("a reader released the shared lowering: %d elements left of %d", col.Len(), want.Len())
		}
		fillConvCol(want.Data(), key, xt.Data(), 2, 36, 72)
		bitsEq(t, "shared lowering after both readers", col, want)
	}
	if got, want := phase.T.StepBytes(), int64(want.Len()*8); got != want {
		t.Fatalf("memo arena holds %d bytes, want the one lowering = %d", got, want)
	}

	// A different input tensor is not covered: its lowering is the
	// worker's own, never the memo's, and — the weight being frozen — back
	// on the worker's arena before Conv2d returns.
	other := tensor.New(2, 1, 6, 6)
	tensor.FillNormal(other, 0, 1, rng)
	before := workers[0].T.StepBytes()
	y := Conv2d(ConstIn(workers[0], other), Const(wt.Clone()), nil, 1, 1)
	if len(memo.m) != 1 {
		t.Fatalf("non-covered key leaked into shared memo (%d entries)", len(memo.m))
	}
	if got, want := workers[0].T.StepBytes()-before, int64(y.Value().Len()*8); got != want {
		t.Fatalf("frozen conv left %d bytes on its arena, want its output = %d", got, want)
	}

	// Rebind drops entries and rebinding to nil stops covering anything.
	memo.Rebind(nil)
	if len(memo.m) != 0 {
		t.Fatal("Rebind(nil) must clear the memo")
	}
	if memo.covers(xt) {
		t.Fatal("unbound memo must cover nothing")
	}
}
