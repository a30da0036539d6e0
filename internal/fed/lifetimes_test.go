package fed

import (
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// deadParam wraps a module with one extra trainable parameter its forward
// pass never touches, so no accumulation ever reaches it.
type deadParam struct {
	nn.Module
	dead *ag.Variable
}

func (m deadParam) Params() []*ag.Variable { return append(m.Module.Params(), m.dead) }

func (m deadParam) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	m.Module.VisitState(prefix, fn)
	fn("dead", m.dead.Value())
}

// TestLentGradsMatchHeap: a local update whose parameter gradients are
// lent by the task arena is bit-identical to one with heap gradients —
// including for a parameter no gradient ever reaches, which stays at a nil
// gradient and is therefore skipped by SGD, weight decay and all — and
// leaves no gradient on the model; the arena keeps the buffers, so the
// next task's gradients cost no allocation.
func TestLentGradsMatchHeap(t *testing.T) {
	ds := tinyDataset(41)
	cfg := LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, WeightDecay: 5e-2}
	mk := func() (*Device, *ag.Variable) {
		d := tinyDevice(t, ds, allTrain(ds), 42)
		dead := ag.Param(tensor.FromSlice([]float64{1, -2, 3}, 3))
		d.Model = deadParam{d.Model, dead}
		return d, dead
	}
	heap, heapDead := mk()
	if _, err := heap.LocalUpdate(cfg, tensor.NewRand(43)); err != nil {
		t.Fatal(err)
	}
	if heapDead.Grad() != nil || heap.Model.Params()[0].Grad() == nil {
		t.Fatal("heap path: want gradients on every parameter but the untouched one")
	}

	lent, lentDead := mk()
	lent.Scratch, lent.TaskScratch = ag.NewArena(), tensor.NewArena()
	if _, err := lent.LocalUpdate(cfg, tensor.NewRand(43)); err != nil {
		t.Fatal(err)
	}
	sameState(t, "lent vs heap gradients", nn.CaptureState(lent.Model), nn.CaptureState(heap.Model))
	if d := lentDead.Value().Data(); d[0] != 1 || d[1] != -2 || d[2] != 3 {
		t.Fatalf("untouched parameter was stepped (weight decay applied to a nil gradient): %v", d)
	}
	for i, p := range lent.Model.Params() {
		if p.Grad() != nil {
			t.Fatalf("parameter %d still holds a gradient after the update", i)
		}
	}

	// Second task on the same arena: every gradient and momentum buffer is
	// recycled storage, so the arena stays where the first update left it.
	if lent.TaskScratch.StepBytes() == 0 {
		t.Fatal("task arena handed out nothing: gradients were not drawn from it")
	}
	lent.TaskScratch.Reset()
	held := lent.TaskScratch.HeldBytes()
	if _, err := lent.LocalUpdate(cfg, tensor.NewRand(44)); err != nil {
		t.Fatal(err)
	}
	if got := lent.TaskScratch.HeldBytes(); got != held {
		t.Fatalf("second update grew the task arena from %d to %d bytes", held, got)
	}
	if _, err := heap.LocalUpdate(cfg, tensor.NewRand(44)); err != nil {
		t.Fatal(err)
	}
	sameState(t, "second update, lent vs heap", nn.CaptureState(lent.Model), nn.CaptureState(heap.Model))
}

// TestLentGradsDetachOnPanic: a step that panics still leaves the model
// without gradients, so the owner can reset the task arena safely.
func TestLentGradsDetachOnPanic(t *testing.T) {
	ds := tinyDataset(45)
	d := tinyDevice(t, ds, allTrain(ds), 46)
	d.TaskScratch = tensor.NewArena()
	inner, left := d.Model, 2
	d.Model = panicAfter{inner, &left}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("want the injected panic")
			}
		}()
		_, _ = d.LocalUpdate(LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.05}, tensor.NewRand(47))
	}()
	for i, p := range inner.Params() {
		if p.Grad() != nil {
			t.Fatalf("parameter %d kept a lent gradient across the panic", i)
		}
	}
}

// panicAfter panics on its left-th forward pass.
type panicAfter struct {
	nn.Module
	left *int
}

func (m panicAfter) Forward(x *ag.Variable) *ag.Variable {
	if *m.left--; *m.left < 0 {
		panic("injected step panic")
	}
	return m.Module.Forward(x)
}

// TestLazyAnchorMatchesEagerSnapshot: capturing the proximal anchor at the
// first update after a download gives bit-identical training to
// snapshotting at the download itself (the explicit SnapshotReceived, as
// baseline.FedProx and the previous Download did), over download → update
// → update without a download → download → update; the same for a virtual
// device, whose model exists only during a task and which captures its
// anchor in a lent buffer after Downloaded. And without the proximal term
// no anchor is ever held.
func TestLazyAnchorMatchesEagerSnapshot(t *testing.T) {
	ds := tinyDataset(51)
	src := tinyDevice(t, ds, allTrain(ds), 52)
	first := src.Upload()
	if _, err := src.LocalUpdate(LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.05}, tensor.NewRand(53)); err != nil {
		t.Fatal(err)
	}
	second := src.Upload()
	cfg := LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, ProxMu: 0.5}

	run := func(mu float64, afterDownload func(*Device)) *Device {
		d := tinyDevice(t, ds, allTrain(ds), 54)
		c := cfg
		c.ProxMu = mu
		for step, dl := range []nn.StateDict{first, nil, second} {
			if dl != nil {
				if err := d.Download(dl); err != nil {
					t.Fatal(err)
				}
				afterDownload(d)
			}
			if _, err := d.LocalUpdate(c, tensor.NewRand(uint64(55+step))); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	eager := run(cfg.ProxMu, (*Device).SnapshotReceived)
	lazy := run(cfg.ProxMu, func(*Device) {})
	sameState(t, "lazy vs eager anchor, model", nn.CaptureState(lazy.Model), nn.CaptureState(eager.Model))
	sameState(t, "lazy vs eager anchor, anchor", lazy.received, eager.received)
	sameState(t, "anchor is the last download", lazy.received, second)
	if free := run(0, func(*Device) {}); free.received != nil || free.anchorDue {
		t.Fatal("a device that never uses the proximal term holds an anchor")
	}

	// Virtual: the model exists only during a task, its state installed by
	// the store that keeps it.
	f64, err := codec.Get(codec.Float64)
	if err != nil {
		t.Fatal(err)
	}
	virt := tinyDevice(t, ds, allTrain(ds), 54)
	m := virt.Model
	lent := second.Clone() // of the model's layout; its values are never read
	for step, dl := range []nn.StateDict{first, second} {
		enc, err := codec.Encode(f64, dl)
		if err != nil {
			t.Fatal(err)
		}
		virt.Model = m
		if err := codec.DecodeInto(enc, nn.CaptureState(m)); err != nil {
			t.Fatal(err)
		}
		virt.Downloaded()
		virt.LendAnchor(lent)
		if _, err := virt.LocalUpdate(cfg, tensor.NewRand(uint64(60+step))); err != nil {
			t.Fatal(err)
		}
		sameState(t, "the lent buffer holds the anchor", lent, dl)
		for name, a := range virt.received {
			if a != lent[name] {
				t.Fatalf("anchor tensor %q was cloned, not captured in the lent buffer", name)
			}
		}
		ref := tinyDevice(t, ds, allTrain(ds), 54)
		if err := ref.Download(dl); err != nil {
			t.Fatal(err)
		}
		ref.SnapshotReceived()
		if _, err := ref.LocalUpdate(cfg, tensor.NewRand(uint64(60+step))); err != nil {
			t.Fatal(err)
		}
		sameState(t, "virtual lazy vs resident eager", nn.CaptureState(m), nn.CaptureState(ref.Model))
		virt.Model = nil
		virt.LendAnchor(nil)
		if virt.received != nil || virt.anchorDue {
			t.Fatal("taking the lent buffer back must leave no anchor")
		}
	}
}
