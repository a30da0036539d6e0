// Package optim implements the optimisers and learning-rate schedules used
// by the paper: SGD with momentum and weight decay for device/global model
// training, Adam for the generator, and a multi-step decay that multiplies
// the learning rate by a factor at fixed milestones (the paper decays by
// 0.3 at 1/2 and 3/4 of total iterations).
package optim

import (
	"fmt"
	"math"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched.
	Step()
	// ZeroGrad clears all parameter gradients.
	ZeroGrad()
	// LR returns the current learning rate.
	LR() float64
	// SetLR overrides the current learning rate (used by schedules).
	SetLR(lr float64)
}

// SGD is stochastic gradient descent with optional momentum and decoupled
// L2 weight decay (decay is added to the gradient, as in classic SGD).
type SGD struct {
	params      []*ag.Variable
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    []*tensor.Tensor // lazily allocated when momentum > 0
	// arena, when set, supplies the velocity buffers (zeroed on hand-out),
	// so they live exactly as long as the arena's current scope; nil, a
	// persistent optimiser's, takes them from the heap.
	arena *tensor.Arena
}

var _ Optimizer = (*SGD)(nil)

// NewSGD constructs an SGD optimiser over params.
func NewSGD(params []*ag.Variable, lr, momentum, weightDecay float64) *SGD {
	return &SGD{params: params, lr: lr, momentum: momentum, weightDecay: weightDecay}
}

// NewSGDIn is NewSGD drawing the momentum velocity buffers from arena
// a instead of the heap. The optimiser is then only valid until a's next
// Reset — the shape of a device's local update, whose optimiser dies
// with the task. NewSGDIn(nil, ...) is NewSGD. Values are identical
// either way: a buffer is zero when first handed out.
func NewSGDIn(a *tensor.Arena, params []*ag.Variable, lr, momentum, weightDecay float64) *SGD {
	s := NewSGD(params, lr, momentum, weightDecay)
	s.arena = a
	return s
}

// Step implements Optimizer.
func (s *SGD) Step() {
	if s.momentum != 0 && s.velocity == nil {
		s.velocity = make([]*tensor.Tensor, len(s.params))
	}
	for i, p := range s.params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Value()
		if s.momentum == 0 {
			// w -= lr*(g + wd*w)
			wd, gd := w.Data(), g.Data()
			for j := range wd {
				wd[j] -= s.lr * (gd[j] + s.weightDecay*wd[j])
			}
			continue
		}
		if s.velocity[i] == nil {
			if s.arena == nil {
				s.velocity[i] = tensor.New(w.Shape()...)
			} else {
				s.velocity[i] = s.arena.NewLike(w)
			}
		}
		v := s.velocity[i]
		vd, wd, gd := v.Data(), w.Data(), g.Data()
		for j := range wd {
			grad := gd[j] + s.weightDecay*wd[j]
			vd[j] = s.momentum*vd[j] + grad
			wd[j] -= s.lr * vd[j]
		}
	}
}

// ZeroGrad implements Optimizer.
func (s *SGD) ZeroGrad() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Adam is the Adam optimiser (Kingma & Ba) with optional L2 weight decay.
// The paper trains the generator with Adam at lr 1e-3.
type Adam struct {
	params      []*ag.Variable
	lr          float64
	beta1       float64
	beta2       float64
	eps         float64
	weightDecay float64
	step        int
	m, v        []*tensor.Tensor
}

var _ Optimizer = (*Adam)(nil)

// NewAdam constructs an Adam optimiser with the standard defaults
// β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(params []*ag.Variable, lr float64) *Adam {
	return &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step() {
	if a.m == nil {
		a.m = make([]*tensor.Tensor, len(a.params))
		a.v = make([]*tensor.Tensor, len(a.params))
	}
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	for i, p := range a.params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Value()
		if a.m[i] == nil {
			a.m[i] = tensor.New(w.Shape()...)
			a.v[i] = tensor.New(w.Shape()...)
		}
		md, vd, wd, gd := a.m[i].Data(), a.v[i].Data(), w.Data(), g.Data()
		for j := range wd {
			grad := gd[j] + a.weightDecay*wd[j]
			md[j] = a.beta1*md[j] + (1-a.beta1)*grad
			vd[j] = a.beta2*vd[j] + (1-a.beta2)*grad*grad
			mHat := md[j] / bc1
			vHat := vd[j] / bc2
			wd[j] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
	}
}

// ZeroGrad implements Optimizer.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// MultiStepLR multiplies an optimiser's learning rate by Gamma whenever the
// step counter crosses a milestone. The paper's schedule is milestones at
// 1/2 and 3/4 of the total iteration count with Gamma = 0.3.
type MultiStepLR struct {
	opt        Optimizer
	milestones []int
	gamma      float64
	step       int
}

// NewMultiStepLR wraps opt with a milestone decay schedule. Milestones are
// step indices (1-based) at which the decay fires.
func NewMultiStepLR(opt Optimizer, milestones []int, gamma float64) *MultiStepLR {
	return &MultiStepLR{opt: opt, milestones: append([]int(nil), milestones...), gamma: gamma}
}

// PaperSchedule returns the paper's schedule for a run of total iterations:
// decay by 0.3 at ceil(total/2) and ceil(3*total/4).
func PaperSchedule(opt Optimizer, total int) *MultiStepLR {
	return NewMultiStepLR(opt, []int{(total + 1) / 2, (3*total + 3) / 4}, 0.3)
}

// Tick advances the schedule by one step, applying decay when a milestone
// is crossed.
func (m *MultiStepLR) Tick() {
	m.step++
	for _, ms := range m.milestones {
		if m.step == ms {
			m.opt.SetLR(m.opt.LR() * m.gamma)
		}
	}
}

// Step returns how many Ticks the schedule has taken.
func (m *MultiStepLR) Step() int { return m.step }

// SetStep restores the schedule's step counter (checkpoint resume). It
// does not replay decays — the decayed learning rate lives in the wrapped
// optimiser's captured state — it only re-arms the remaining milestones.
func (m *MultiStepLR) SetStep(step int) { m.step = step }

// State is a serialisable snapshot of an optimiser's cross-step state:
// the current learning rate (schedules may have decayed it), the step
// counter (Adam's bias correction), and the moment buffers. A nil slot
// means that buffer was never allocated (the parameter has not been
// stepped yet), which round-trips exactly. The layout of Slots is
// optimiser-specific; Load validates it against the parameter list.
type State struct {
	LR    float64
	Step  int
	Slots [][]float64
}

// cloneSlot copies one moment tensor out as a plain slice (nil in, nil out).
func cloneSlot(t *tensor.Tensor) []float64 {
	if t == nil {
		return nil
	}
	return append([]float64(nil), t.Data()...)
}

// restoreSlot rebuilds one moment tensor shaped like the parameter it
// tracks, or nil for a never-allocated buffer.
func restoreSlot(p *ag.Variable, data []float64, what string) (*tensor.Tensor, error) {
	if data == nil {
		return nil, nil
	}
	w := p.Value()
	if len(data) != w.Len() {
		return nil, fmt.Errorf("optim: %s buffer has %d values, parameter has %d", what, len(data), w.Len())
	}
	t := tensor.New(w.Shape()...)
	copy(t.Data(), data)
	return t, nil
}

// CaptureState snapshots the SGD optimiser's learning rate and momentum
// velocity buffers. Slots holds one entry per parameter (empty when
// momentum is off or Step has never run).
func (s *SGD) CaptureState() State {
	st := State{LR: s.lr}
	if s.velocity != nil {
		st.Slots = make([][]float64, len(s.velocity))
		for i, v := range s.velocity {
			st.Slots[i] = cloneSlot(v)
		}
	}
	return st
}

// LoadState restores a snapshot taken by CaptureState onto this
// optimiser's parameters. All-or-nothing: on error the optimiser is
// unchanged.
func (s *SGD) LoadState(st State) error {
	if len(st.Slots) != 0 && len(st.Slots) != len(s.params) {
		return fmt.Errorf("optim: sgd state has %d velocity buffers, optimiser has %d parameters", len(st.Slots), len(s.params))
	}
	var vel []*tensor.Tensor
	if len(st.Slots) != 0 {
		vel = make([]*tensor.Tensor, len(s.params))
		for i, slot := range st.Slots {
			t, err := restoreSlot(s.params[i], slot, "sgd velocity")
			if err != nil {
				return err
			}
			vel[i] = t
		}
	}
	s.lr = st.LR
	s.velocity = vel
	return nil
}

// CaptureState snapshots the Adam optimiser's learning rate, step count
// and first/second moment buffers. Slots holds the m buffers for every
// parameter followed by the v buffers (2·len(params) entries, or none
// when Step has never run).
func (a *Adam) CaptureState() State {
	st := State{LR: a.lr, Step: a.step}
	if a.m != nil {
		st.Slots = make([][]float64, 0, 2*len(a.params))
		for _, t := range a.m {
			st.Slots = append(st.Slots, cloneSlot(t))
		}
		for _, t := range a.v {
			st.Slots = append(st.Slots, cloneSlot(t))
		}
	}
	return st
}

// LoadState restores a snapshot taken by CaptureState onto this
// optimiser's parameters. All-or-nothing: on error the optimiser is
// unchanged.
func (a *Adam) LoadState(st State) error {
	if len(st.Slots) != 0 && len(st.Slots) != 2*len(a.params) {
		return fmt.Errorf("optim: adam state has %d moment buffers, optimiser needs %d", len(st.Slots), 2*len(a.params))
	}
	var m, v []*tensor.Tensor
	if len(st.Slots) != 0 {
		m = make([]*tensor.Tensor, len(a.params))
		v = make([]*tensor.Tensor, len(a.params))
		for i := range a.params {
			mt, err := restoreSlot(a.params[i], st.Slots[i], "adam m")
			if err != nil {
				return err
			}
			vt, err := restoreSlot(a.params[i], st.Slots[len(a.params)+i], "adam v")
			if err != nil {
				return err
			}
			if (mt == nil) != (vt == nil) {
				return fmt.Errorf("optim: adam parameter %d has mismatched m/v allocation", i)
			}
			m[i], v[i] = mt, vt
		}
	}
	a.lr = st.LR
	a.step = st.Step
	a.m = m
	a.v = v
	return nil
}
