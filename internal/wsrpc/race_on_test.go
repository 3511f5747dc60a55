//go:build race

package wsrpc

// raceEnabled skips allocation-count pins under the race detector, whose
// instrumentation perturbs them.
const raceEnabled = true
