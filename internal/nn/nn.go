// Package nn provides neural-network layers on top of the ag autodiff
// engine: a Module interface, parameterised layers (Linear, Conv2d,
// DepthwiseConv2d, BatchNorm), activations, pooling, a Sequential
// container, and named state-dict capture/load for transporting model
// parameters between federated peers.
package nn

import (
	"fmt"
	"sort"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Module is a composable network component.
type Module interface {
	// Forward applies the module to x, building autodiff tape state as
	// needed.
	Forward(x *ag.Variable) *ag.Variable
	// Params returns the module's trainable parameters in a stable order.
	Params() []*ag.Variable
	// SetTraining switches between training and evaluation behaviour
	// (batch statistics vs running statistics in BatchNorm).
	SetTraining(training bool)
	// VisitState walks all persistent state (parameters and buffers) with
	// stable, unique names under the given prefix.
	VisitState(prefix string, fn func(name string, t *tensor.Tensor))
}

// NumParams returns the total number of scalar trainable parameters.
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value().Len()
	}
	return n
}

// SetTrainable toggles gradient accumulation on every parameter; used to
// freeze teacher models during server-side distillation while still
// letting gradients flow through them to the generator.
func SetTrainable(m Module, trainable bool) {
	for _, p := range m.Params() {
		p.SetRequiresGrad(trainable)
	}
}

// StateDict maps state names to tensors. The tensors are references into
// the module (not copies); use Clone for a snapshot.
type StateDict map[string]*tensor.Tensor

// CaptureState collects references to all persistent state of m.
func CaptureState(m Module) StateDict {
	sd := make(StateDict)
	m.VisitState("", func(name string, t *tensor.Tensor) {
		if _, dup := sd[name]; dup {
			panic(fmt.Sprintf("nn: duplicate state name %q", name))
		}
		sd[name] = t
	})
	return sd
}

// Clone returns a deep copy of the state dict.
func (sd StateDict) Clone() StateDict {
	out := make(StateDict, len(sd))
	for k, v := range sd {
		out[k] = v.Clone()
	}
	return out
}

// Names returns the sorted state names, useful for deterministic encoding.
func (sd StateDict) Names() []string {
	names := make([]string, 0, len(sd))
	for k := range sd {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Numel returns the total number of scalars in the state dict.
func (sd StateDict) Numel() int {
	n := 0
	for _, t := range sd {
		n += t.Len()
	}
	return n
}

// LoadState copies src's values into m's state tensors. Every state entry
// of m must be present in src with a matching element count; extra entries
// in src are an error too, so drifted architectures fail loudly.
func LoadState(m Module, src StateDict) error {
	dst := CaptureState(m)
	if len(dst) != len(src) {
		return fmt.Errorf("nn: state dict size mismatch: model has %d entries, source has %d", len(dst), len(src))
	}
	for name, d := range dst {
		s, ok := src[name]
		if !ok {
			return fmt.Errorf("nn: state %q missing from source", name)
		}
		if d.Len() != s.Len() {
			return fmt.Errorf("nn: state %q length mismatch: %d vs %d", name, d.Len(), s.Len())
		}
		d.CopyFrom(s)
	}
	return nil
}

// LoadFrom copies src's values into sd's tensors, with the same strict
// key/length validation as LoadState: both dicts must hold exactly the
// same names with matching element counts, so drifted architectures fail
// loudly. It is the dict-to-dict analogue of LoadState; into a
// CaptureState dict, it writes the module's own tensors.
func (sd StateDict) LoadFrom(src StateDict) error {
	if len(sd) != len(src) {
		return fmt.Errorf("nn: state dict size mismatch: destination has %d entries, source has %d", len(sd), len(src))
	}
	// Deterministic iteration keeps error messages stable across runs.
	names := sd.Names()
	for _, n := range names {
		s, ok := src[n]
		if !ok {
			return fmt.Errorf("nn: state %q missing from source", n)
		}
		if sd[n].Len() != s.Len() {
			return fmt.Errorf("nn: state %q length mismatch: %d vs %d", n, sd[n].Len(), s.Len())
		}
	}
	for _, n := range names {
		sd[n].CopyFrom(src[n])
	}
	return nil
}

// join concatenates state-name components.
func join(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}
