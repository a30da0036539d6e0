package optim

import (
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// quadLoss builds loss = Σ (w - target)² for a fresh graph each step.
func quadLoss(w *ag.Variable, target *tensor.Tensor) *ag.Variable {
	d := ag.Sub(w, ag.Const(target))
	return ag.SumAll(ag.Mul(d, d))
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	w := ag.Param(tensor.Full(5, 4))
	target := tensor.FromSlice([]float64{1, -2, 3, 0.5}, 4)
	opt := NewSGD([]*ag.Variable{w}, 0.1, 0, 0)
	for i := 0; i < 200; i++ {
		opt.ZeroGrad()
		ag.Backward(quadLoss(w, target))
		opt.Step()
	}
	if d := tensor.MaxAbsDiff(w.Value(), target); d > 1e-6 {
		t.Fatalf("SGD did not converge: max|Δ|=%g", d)
	}
}

func TestSGDMomentumFasterThanPlain(t *testing.T) {
	run := func(momentum float64) float64 {
		w := ag.Param(tensor.Full(5, 2))
		target := tensor.FromSlice([]float64{0, 0}, 2)
		opt := NewSGD([]*ag.Variable{w}, 0.01, momentum, 0)
		for i := 0; i < 50; i++ {
			opt.ZeroGrad()
			ag.Backward(quadLoss(w, target))
			opt.Step()
		}
		return tensor.Norm2(w.Value())
	}
	plain, mom := run(0), run(0.9)
	if mom >= plain {
		t.Fatalf("momentum (%g) should beat plain SGD (%g) on a quadratic", mom, plain)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	w := ag.Param(tensor.Full(1, 3))
	opt := NewSGD([]*ag.Variable{w}, 0.1, 0, 0.5)
	// Zero gradient: only the decay term acts.
	g := tensor.New(3)
	ag.Backward(ag.SumAll(ag.Mul(w, ag.Const(g)))) // grads = 0
	opt.Step()
	for _, v := range w.Value().Data() {
		if math.Abs(v-0.95) > 1e-12 {
			t.Fatalf("weight after decay = %v, want 0.95", v)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := ag.Param(tensor.Full(-3, 5))
	target := tensor.FromSlice([]float64{2, -1, 0, 4, 1}, 5)
	opt := NewAdam([]*ag.Variable{w}, 0.1)
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		ag.Backward(quadLoss(w, target))
		opt.Step()
	}
	if d := tensor.MaxAbsDiff(w.Value(), target); d > 1e-3 {
		t.Fatalf("Adam did not converge: max|Δ|=%g", d)
	}
}

func TestAdamHandlesSparseNilGrads(t *testing.T) {
	w1 := ag.Param(tensor.Full(1, 2))
	w2 := ag.Param(tensor.Full(1, 2)) // never used in the loss
	opt := NewAdam([]*ag.Variable{w1, w2}, 0.01)
	ag.Backward(ag.SumAll(w1))
	opt.Step() // must not panic on w2's nil grad
	if w2.Value().Data()[0] != 1 {
		t.Fatal("parameter without gradient must not move")
	}
}

func TestMultiStepLRMilestones(t *testing.T) {
	w := ag.Param(tensor.New(1))
	opt := NewSGD([]*ag.Variable{w}, 1.0, 0, 0)
	sched := NewMultiStepLR(opt, []int{2, 4}, 0.3)
	lrs := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		sched.Tick()
		lrs = append(lrs, opt.LR())
	}
	want := []float64{1.0, 0.3, 0.3, 0.09, 0.09}
	for i, w := range want {
		if math.Abs(lrs[i]-w) > 1e-12 {
			t.Fatalf("lrs = %v, want %v", lrs, want)
		}
	}
}

func TestPaperSchedule(t *testing.T) {
	w := ag.Param(tensor.New(1))
	opt := NewSGD([]*ag.Variable{w}, 0.01, 0, 0)
	sched := PaperSchedule(opt, 200)
	for i := 0; i < 200; i++ {
		sched.Tick()
		switch {
		case i+1 < 100 && opt.LR() != 0.01:
			t.Fatalf("step %d: lr=%g, want 0.01", i+1, opt.LR())
		case i+1 >= 150 && math.Abs(opt.LR()-0.01*0.09) > 1e-15:
			t.Fatalf("step %d: lr=%g, want %g", i+1, opt.LR(), 0.01*0.09)
		}
	}
}

// TestStateRoundTripBitExact: capturing an optimiser's state mid-run,
// restoring it onto a fresh optimiser over a copy of the parameters, and
// continuing must produce bit-identical trajectories — the property the
// checkpoint layer's resume guarantee rests on.
func TestStateRoundTripBitExact(t *testing.T) {
	target := tensor.FromSlice([]float64{1, -2, 3, 0.5}, 4)
	stepN := func(w *ag.Variable, opt Optimizer, sched *MultiStepLR, n int) {
		for i := 0; i < n; i++ {
			opt.ZeroGrad()
			ag.Backward(quadLoss(w, target))
			opt.Step()
			sched.Tick()
		}
	}

	t.Run("sgd+schedule", func(t *testing.T) {
		// Reference: 10 uninterrupted steps with momentum and a decay at 7.
		wRef := ag.Param(tensor.Full(5, 4))
		optRef := NewSGD([]*ag.Variable{wRef}, 0.1, 0.9, 1e-4)
		schedRef := NewMultiStepLR(optRef, []int{3, 7}, 0.3)
		stepN(wRef, optRef, schedRef, 10)

		// Interrupted: 5 steps, capture, restore into a fresh optimiser
		// over copied weights, 5 more.
		w1 := ag.Param(tensor.Full(5, 4))
		opt1 := NewSGD([]*ag.Variable{w1}, 0.1, 0.9, 1e-4)
		sched1 := NewMultiStepLR(opt1, []int{3, 7}, 0.3)
		stepN(w1, opt1, sched1, 5)
		st := opt1.CaptureState()

		w2 := ag.Param(w1.Value().Clone())
		opt2 := NewSGD([]*ag.Variable{w2}, 0.1, 0.9, 1e-4)
		sched2 := NewMultiStepLR(opt2, []int{3, 7}, 0.3)
		if err := opt2.LoadState(st); err != nil {
			t.Fatal(err)
		}
		sched2.SetStep(sched1.Step())
		stepN(w2, opt2, sched2, 5)

		if d := tensor.MaxAbsDiff(wRef.Value(), w2.Value()); d != 0 {
			t.Fatalf("resumed SGD diverged from uninterrupted run: max|Δ|=%g", d)
		}
	})

	t.Run("adam", func(t *testing.T) {
		wRef := ag.Param(tensor.Full(-3, 4))
		optRef := NewAdam([]*ag.Variable{wRef}, 0.05)
		for i := 0; i < 10; i++ {
			optRef.ZeroGrad()
			ag.Backward(quadLoss(wRef, target))
			optRef.Step()
		}

		w1 := ag.Param(tensor.Full(-3, 4))
		opt1 := NewAdam([]*ag.Variable{w1}, 0.05)
		for i := 0; i < 5; i++ {
			opt1.ZeroGrad()
			ag.Backward(quadLoss(w1, target))
			opt1.Step()
		}
		st := opt1.CaptureState()
		if st.Step != 5 {
			t.Fatalf("captured step %d, want 5", st.Step)
		}

		w2 := ag.Param(w1.Value().Clone())
		opt2 := NewAdam([]*ag.Variable{w2}, 0.05)
		if err := opt2.LoadState(st); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			opt2.ZeroGrad()
			ag.Backward(quadLoss(w2, target))
			opt2.Step()
		}
		if d := tensor.MaxAbsDiff(wRef.Value(), w2.Value()); d != 0 {
			t.Fatalf("resumed Adam diverged from uninterrupted run: max|Δ|=%g", d)
		}
	})

	t.Run("fresh state round-trips", func(t *testing.T) {
		w := ag.Param(tensor.Full(1, 2))
		opt := NewSGD([]*ag.Variable{w}, 0.1, 0.9, 0)
		st := opt.CaptureState()
		if len(st.Slots) != 0 {
			t.Fatal("unstepped optimiser captured velocity buffers")
		}
		if err := opt.LoadState(st); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("rejects wrong shapes", func(t *testing.T) {
		w := ag.Param(tensor.Full(1, 2))
		opt := NewSGD([]*ag.Variable{w}, 0.1, 0.9, 0)
		bad := State{LR: 0.1, Slots: [][]float64{{1, 2, 3}}}
		if err := opt.LoadState(bad); err == nil {
			t.Fatal("want error for mis-sized velocity buffer")
		}
		adam := NewAdam([]*ag.Variable{w}, 0.1)
		if err := adam.LoadState(State{LR: 0.1, Slots: [][]float64{{1, 2}}}); err == nil {
			t.Fatal("want error for wrong slot count")
		}
	})
}

// TestSGDArenaVelocityMatchesHeap: drawing the momentum buffers from a
// task-scoped arena rather than NewSGD's heap changes where they live,
// never a value — even when the arena hands back buffers a previous task
// left dirty — and a warmed-up arena makes a fresh optimiser's buffers
// free.
func TestSGDArenaVelocityMatchesHeap(t *testing.T) {
	target := tensor.FromSlice([]float64{1, -2, 3, 0.5}, 4)
	run := func(newSGD func(params []*ag.Variable) *SGD) []float64 {
		w := ag.Param(tensor.FromSlice([]float64{0.3, 0.1, -0.7, 2}, 4))
		opt := newSGD([]*ag.Variable{w})
		for i := 0; i < 20; i++ {
			opt.ZeroGrad()
			ag.Backward(quadLoss(w, target))
			opt.Step()
		}
		return append([]float64(nil), w.Value().Data()...)
	}
	want := run(func(ps []*ag.Variable) *SGD { return NewSGD(ps, 0.05, 0.9, 1e-3) })
	arena := tensor.NewArena()
	var held int64
	for task := 0; task < 3; task++ {
		got := run(func(ps []*ag.Variable) *SGD { return NewSGDIn(arena, ps, 0.05, 0.9, 1e-3) })
		if task == 0 {
			held = arena.HeldBytes()
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("task %d: w[%d] = %v with arena velocity, %v on the heap", task, i, got[i], want[i])
			}
		}
		arena.Reset() // the next task's optimiser reuses this task's (dirty) buffers
	}
	if peak := arena.StepPeakBytes(); peak != 4*8 {
		t.Fatalf("a task drew %d bytes from the arena, want one 4-element velocity buffer", peak)
	}
	if got := arena.HeldBytes(); got != held {
		t.Fatalf("arena grew from %d to %d bytes over three tasks on one parameter", held, got)
	}
}
