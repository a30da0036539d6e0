package nn

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Sequential chains modules, feeding each one's output to the next.
type Sequential struct {
	mods []Module
}

// NewSequential builds a Sequential over the given modules.
func NewSequential(mods ...Module) *Sequential {
	return &Sequential{mods: append([]Module(nil), mods...)}
}

// Len returns the number of child modules.
func (s *Sequential) Len() int { return len(s.mods) }

// Forward implements Module. Each intermediate has one reader, the next
// module, so it goes to ag.Discard once that module has returned: the
// arena takes it back unless a recorded backward declared it reads it
// (in a ForwardOnly pass none does). The chain's input is the caller's
// and is never touched.
func (s *Sequential) Forward(x *ag.Variable) *ag.Variable {
	h := x
	for _, m := range s.mods {
		next := m.Forward(h)
		ag.Discard(h, x, next)
		h = next
	}
	return h
}

// Params implements Module.
func (s *Sequential) Params() []*ag.Variable {
	var ps []*ag.Variable
	for _, m := range s.mods {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// SetTraining implements Module.
func (s *Sequential) SetTraining(t bool) {
	for _, m := range s.mods {
		m.SetTraining(t)
	}
}

// Reinit implements Reinitialiser by re-seeding the children in chain
// order — the order their constructors drew from the build's generator.
// A child that cannot re-seed itself is a programming error.
func (s *Sequential) Reinit(rng *rand.Rand) {
	for i, m := range s.mods {
		r, ok := m.(Reinitialiser)
		if !ok {
			panic(fmt.Sprintf("nn: sequential child %d (%T) does not implement Reinitialiser", i, m))
		}
		r.Reinit(rng)
	}
}

// VisitState implements Module; children are namespaced by their index.
func (s *Sequential) VisitState(prefix string, fn func(string, *tensor.Tensor)) {
	for i, m := range s.mods {
		m.VisitState(join(prefix, strconv.Itoa(i)), fn)
	}
}
