package nn

import (
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// buildAllLayers returns one instance of every parameterised layer wrapped
// in a Sequential, for cross-cutting invariant checks.
func buildAllLayers() *Sequential {
	rng := tensor.NewRand(1)
	return NewSequential(
		NewConv2d(1, 4, 3, 1, 1, true, rng),
		NewBatchNorm2d(4),
		ReLU{},
		NewDepthwiseConv2d(4, 3, 1, 1, true, rng),
		ReLU6{},
		MaxPool2d{K: 2, Stride: 2},
		Flatten{},
		NewLinear(4*4*4, 8, true, rng),
		Tanh{},
		NewLinear(8, 4, false, rng),
	)
}

// TestEveryParamAppearsInStateDict: parameters that the optimiser updates
// must all be captured by VisitState, or uploads would silently drop
// learned weights.
func TestEveryParamAppearsInStateDict(t *testing.T) {
	m := buildAllLayers()
	sd := CaptureState(m)
	byPtr := make(map[*tensor.Tensor]string, len(sd))
	for name, tt := range sd {
		byPtr[tt] = name
	}
	for i, p := range m.Params() {
		if _, ok := byPtr[p.Value()]; !ok {
			t.Fatalf("parameter %d is not reachable via VisitState", i)
		}
	}
}

// TestStateDictNamesUnique: duplicate names would corrupt uploads.
func TestStateDictNamesUnique(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("CaptureState panicked: %v", r)
		}
	}()
	m := NewSequential(buildAllLayers(), buildAllLayers())
	sd := CaptureState(m)
	// Two copies of the same stack: every entry must still be distinct.
	if len(sd) != 2*len(CaptureState(buildAllLayers())) {
		t.Fatalf("nested sequential lost state entries: %d", len(sd))
	}
}

// TestNumParamsMatchesStateDictTrainablePortion: NumParams counts exactly
// the trainable scalars (state dicts additionally hold BN running stats).
func TestNumParamsMatchesStateDict(t *testing.T) {
	m := buildAllLayers()
	nParams := NumParams(m)
	sd := CaptureState(m)
	// BN contributes 2 buffers of 4 channels = 8 extra scalars.
	if got := sd.Numel() - 8; got != nParams {
		t.Fatalf("NumParams=%d but state dict holds %d trainable scalars", nParams, got)
	}
}
