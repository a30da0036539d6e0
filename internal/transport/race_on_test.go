//go:build race

package transport

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own account: byte ceilings measured on a plain build do not apply.
const raceEnabled = true
