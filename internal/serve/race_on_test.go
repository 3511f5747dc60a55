//go:build race

package serve

// raceEnabled skips allocation-count pins under the race detector, whose
// instrumentation perturbs them.
const raceEnabled = true
