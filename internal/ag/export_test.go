package ag

// Hooks for the external test package, which builds the model zoo: model
// imports ag, so a test inside package ag cannot.
var (
	BuildNet  = buildNet
	NetParams = netParams
	Interior  = interior
	BitsEq    = bitsEq
)

// ArenaOf returns the arena v draws from, nil for a leaf without one.
func ArenaOf(v *Variable) *Arena { return v.ar }
