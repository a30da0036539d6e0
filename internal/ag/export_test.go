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

// Entries reports how many lowerings the memo holds.
func (m *ColMemo) Entries() int { return len(m.m) }
