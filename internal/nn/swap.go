package nn

import (
	"fmt"
	"sort"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// StateBinding pairs a module's persistent state tensors with their names
// once, so state dicts can be swapped in and out repeatedly without
// re-walking the module or allocating. It is the mechanism behind
// shared-state replica cohorts: one live module serves many devices, each
// device's parameters living in a plain StateDict until they are needed.
type StateBinding struct {
	names   []string
	tensors []*tensor.Tensor
}

// BindState captures references to m's persistent state (parameters and
// buffers) in sorted-name order. The binding stays valid for the lifetime
// of the module: the tensors are the module's own storage.
func BindState(m Module) *StateBinding {
	sd := CaptureState(m)
	names := sd.Names()
	b := &StateBinding{names: names, tensors: make([]*tensor.Tensor, len(names))}
	for i, n := range names {
		b.tensors[i] = sd[n]
	}
	return b
}

// Names returns the bound state names in sorted order.
func (b *StateBinding) Names() []string { return append([]string(nil), b.names...) }

// Swap exchanges the module's state values with sd's in place: after the
// call the module holds sd's former values and sd holds the module's. The
// exchange is O(#tensors) slice-header swaps — no element copying — so it
// is cheap enough to run per distillation iteration. sd must contain
// exactly the bound names with matching element counts; on error nothing
// has been exchanged.
func (b *StateBinding) Swap(sd StateDict) error {
	if len(sd) != len(b.names) {
		return fmt.Errorf("nn: swap state dict size mismatch: binding has %d entries, dict has %d", len(b.names), len(sd))
	}
	for i, n := range b.names {
		s, ok := sd[n]
		if !ok {
			return fmt.Errorf("nn: swap state %q missing from dict", n)
		}
		if s.Len() != b.tensors[i].Len() {
			return fmt.Errorf("nn: swap state %q length mismatch: %d vs %d", n, b.tensors[i].Len(), s.Len())
		}
	}
	for i, n := range b.names {
		b.tensors[i].SwapData(sd[n])
	}
	return nil
}

// LoadFrom copies src's values into sd's tensors, with the same strict
// key/length validation as LoadState: both dicts must hold exactly the
// same names with matching element counts, so drifted architectures fail
// loudly. It is the dict-to-dict analogue used when device state lives in
// plain StateDict slots rather than a live module.
func (sd StateDict) LoadFrom(src StateDict) error {
	if len(sd) != len(src) {
		return fmt.Errorf("nn: state dict size mismatch: destination has %d entries, source has %d", len(sd), len(src))
	}
	// Deterministic iteration keeps error messages stable across runs.
	names := make([]string, 0, len(sd))
	for n := range sd {
		names = append(names, n)
	}
	sort.Strings(names)
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
