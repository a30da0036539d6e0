package nn

import (
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// swapTestModule builds a small module with both parameters and buffers
// (BatchNorm), so swaps must carry running statistics too.
func swapTestModule(seed uint64) Module {
	rng := tensor.NewRand(seed)
	return NewSequential(
		NewLinear(4, 8, true, rng),
		NewBatchNorm1d(8),
		ReLU{},
		NewLinear(8, 3, true, rng),
	)
}

func TestSwapStateRoundTrip(t *testing.T) {
	m := swapTestModule(1)
	orig := CaptureState(m).Clone()

	other := CaptureState(swapTestModule(2)).Clone()
	otherOrig := other.Clone()

	if err := BindState(m).Swap(other); err != nil {
		t.Fatal(err)
	}
	// Module now holds the other state; the dict holds the module's.
	got := CaptureState(m)
	for name, want := range otherOrig {
		if tensor.MaxAbsDiff(got[name], want) != 0 {
			t.Fatalf("state %q not swapped into module", name)
		}
	}
	for name, want := range orig {
		if tensor.MaxAbsDiff(other[name], want) != 0 {
			t.Fatalf("state %q not swapped out to dict", name)
		}
	}
	// Swapping back restores the original exactly.
	if err := BindState(m).Swap(other); err != nil {
		t.Fatal(err)
	}
	got = CaptureState(m)
	for name, want := range orig {
		if tensor.MaxAbsDiff(got[name], want) != 0 {
			t.Fatalf("state %q not restored by second swap", name)
		}
	}
}

// TestSwapStateVisibleThroughParams pins the property the shared-state
// replica design depends on: a swap changes the values seen through the
// module's existing Param variables (and thus optimisers bound to them)
// without re-binding anything.
func TestSwapStateVisibleThroughParams(t *testing.T) {
	m := swapTestModule(3)
	p := m.Params()[0]
	before := p.Value().Data()[0]

	other := CaptureState(swapTestModule(4)).Clone()
	if err := BindState(m).Swap(other); err != nil {
		t.Fatal(err)
	}
	if p.Value().Data()[0] == before {
		t.Fatal("swap not visible through previously captured Param variable")
	}

	// A forward pass after the swap must use the swapped values.
	x := tensor.New(2, 4)
	x.Fill(1)
	m.SetTraining(false)
	y1 := m.Forward(ag.Const(x)).Value().Clone()
	if err := BindState(m).Swap(other); err != nil {
		t.Fatal(err)
	}
	y2 := m.Forward(ag.Const(x)).Value()
	if tensor.MaxAbsDiff(y1, y2) == 0 {
		t.Fatal("forward outputs identical across different swapped states")
	}
}

func TestStateBindingRepeatedSwaps(t *testing.T) {
	m := swapTestModule(5)
	b := BindState(m)
	a := CaptureState(swapTestModule(6)).Clone()
	c := CaptureState(swapTestModule(7)).Clone()
	aOrig, cOrig := a.Clone(), c.Clone()

	for i := 0; i < 3; i++ {
		if err := b.Swap(a); err != nil {
			t.Fatal(err)
		}
		if err := b.Swap(a); err != nil { // restore
			t.Fatal(err)
		}
		if err := b.Swap(c); err != nil {
			t.Fatal(err)
		}
		if err := b.Swap(c); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range aOrig {
		if tensor.MaxAbsDiff(a[name], want) != 0 {
			t.Fatalf("dict a state %q corrupted by paired swaps", name)
		}
	}
	for name, want := range cOrig {
		if tensor.MaxAbsDiff(c[name], want) != 0 {
			t.Fatalf("dict c state %q corrupted by paired swaps", name)
		}
	}
}

func TestSwapStateErrors(t *testing.T) {
	m := swapTestModule(8)
	good := CaptureState(m).Clone()

	// Missing key.
	bad := good.Clone()
	name := bad.Names()[0]
	delete(bad, name)
	if err := BindState(m).Swap(bad); err == nil {
		t.Fatal("want error for missing state name")
	}
	// Extra key (size mismatch).
	bad = good.Clone()
	bad["bogus"] = tensor.New(1)
	if err := BindState(m).Swap(bad); err == nil {
		t.Fatal("want error for extra state name")
	}
	// Length mismatch must leave the module untouched.
	bad = good.Clone()
	bad[name] = tensor.New(1, 1)
	before := CaptureState(m).Clone()
	if err := BindState(m).Swap(bad); err == nil {
		t.Fatal("want error for length mismatch")
	}
	after := CaptureState(m)
	for n, want := range before {
		if tensor.MaxAbsDiff(after[n], want) != 0 {
			t.Fatalf("failed swap mutated module state %q", n)
		}
	}
}

func TestStateDictLoadFrom(t *testing.T) {
	dst := CaptureState(swapTestModule(9)).Clone()
	src := CaptureState(swapTestModule(10)).Clone()
	if err := dst.LoadFrom(src); err != nil {
		t.Fatal(err)
	}
	for name, want := range src {
		if tensor.MaxAbsDiff(dst[name], want) != 0 {
			t.Fatalf("state %q not copied", name)
		}
	}
	// Mismatched keys fail loudly.
	bad := src.Clone()
	n := bad.Names()[0]
	bad["renamed"] = bad[n]
	delete(bad, n)
	if err := dst.LoadFrom(bad); err == nil {
		t.Fatal("want error for mismatched keys")
	}
	// Size mismatch fails loudly.
	short := src.Clone()
	delete(short, short.Names()[0])
	if err := dst.LoadFrom(short); err == nil {
		t.Fatal("want error for size mismatch")
	}
	// Length mismatch fails loudly.
	wrong := src.Clone()
	wrong[wrong.Names()[0]] = tensor.New(1)
	if err := dst.LoadFrom(wrong); err == nil {
		t.Fatal("want error for length mismatch")
	}
}
